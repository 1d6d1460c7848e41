package analytics

import (
	"cmp"
	"slices"
	"strings"

	"github.com/text-analytics/ntadoc/internal/dict"
)

// This file holds the ground-truth reference implementations: direct scans
// over raw per-file token streams.  Every engine's output is cross-checked
// against these in the integration tests, and the uncompressed baseline
// engine mirrors their logic over device-resident tokens.

// RefWordCount counts every word across all files.
func RefWordCount(files [][]uint32) map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for _, f := range files {
		for _, w := range f {
			out[w]++
		}
	}
	return out
}

// RefSort returns the distinct words with counts, alphabetized by their
// dictionary strings — the paper's sort benchmark output.  The oracle compares
// the strings themselves; the engines go through the dictionary's rank table.
func RefSort(files [][]uint32, d *dict.Dictionary) []WordFreq {
	counts := RefWordCount(files)
	out := make([]WordFreq, 0, len(counts))
	for w, c := range counts {
		out = append(out, WordFreq{Word: w, Freq: c})
	}
	words := d.Words()
	slices.SortFunc(out, func(a, b WordFreq) int {
		return strings.Compare(dict.WordIn(words, a.Word), dict.WordIn(words, b.Word))
	})
	return out
}

// RefTermVector builds each document's term vector: words by descending
// frequency (ascending word ID on ties), truncated to k when k > 0.
func RefTermVector(files [][]uint32, k int) [][]WordFreq {
	out := make([][]WordFreq, len(files))
	for i, f := range files {
		counts := make(map[uint32]uint64)
		for _, w := range f {
			counts[w]++
		}
		out[i] = TermVectorOf(counts, k)
	}
	return out
}

// TermVectorOf converts one document's word counts into its canonical term
// vector ordering.
func TermVectorOf(counts map[uint32]uint64, k int) []WordFreq {
	vec := make([]WordFreq, 0, len(counts))
	for w, c := range counts {
		vec = append(vec, WordFreq{Word: w, Freq: c})
	}
	return TermVectorSorted(vec, k)
}

// TermVectorSorted orders an already-built word-frequency slice in place into
// the canonical term-vector ordering (descending frequency, ascending word ID
// on ties) and truncates it to k when k > 0.
func TermVectorSorted(vec []WordFreq, k int) []WordFreq {
	slices.SortFunc(vec, func(a, b WordFreq) int {
		if a.Freq != b.Freq {
			return cmp.Compare(b.Freq, a.Freq)
		}
		return cmp.Compare(a.Word, b.Word)
	})
	if k > 0 && len(vec) > k {
		vec = vec[:k]
	}
	return vec
}

// RefInvertedIndex maps each word to the ascending list of documents that
// contain it.
func RefInvertedIndex(files [][]uint32) map[uint32][]uint32 {
	out := make(map[uint32][]uint32)
	for doc, f := range files {
		seen := make(map[uint32]struct{})
		for _, w := range f {
			if _, ok := seen[w]; ok {
				continue
			}
			seen[w] = struct{}{}
			out[w] = append(out[w], uint32(doc))
		}
	}
	// Docs were appended in ascending order already; keep the invariant
	// explicit for mutated inputs.
	for w := range out {
		slices.Sort(out[w])
	}
	return out
}

// RefSequenceCount counts every SeqLen-gram within each file (sequences do
// not cross file boundaries) and sums globally.
func RefSequenceCount(files [][]uint32) map[Seq]uint64 {
	out := make(map[Seq]uint64)
	for _, f := range files {
		for i := 0; i+SeqLen <= len(f); i++ {
			var s Seq
			copy(s[:], f[i:i+SeqLen])
			out[s]++
		}
	}
	return out
}

// RefRankedInvertedIndex maps each n-gram to its postings, ordered by
// descending per-document frequency (ascending document on ties).
func RefRankedInvertedIndex(files [][]uint32) map[Seq][]DocFreq {
	perDoc := make(map[Seq]map[uint32]uint64)
	for doc, f := range files {
		for i := 0; i+SeqLen <= len(f); i++ {
			var s Seq
			copy(s[:], f[i:i+SeqLen])
			m := perDoc[s]
			if m == nil {
				m = make(map[uint32]uint64)
				perDoc[s] = m
			}
			m[uint32(doc)]++
		}
	}
	out := make(map[Seq][]DocFreq, len(perDoc))
	for s, m := range perDoc {
		out[s] = RankPostings(m)
	}
	return out
}

// RankPostings converts per-document counts to the canonical ranked order.
func RankPostings(m map[uint32]uint64) []DocFreq {
	postings := make([]DocFreq, 0, len(m))
	for doc, c := range m {
		postings = append(postings, DocFreq{Doc: doc, Freq: c})
	}
	return RankPostingsSorted(postings)
}

// RankPostingsSorted orders an already-built postings slice in place into the
// canonical ranking: descending frequency, ascending document on ties.
func RankPostingsSorted(postings []DocFreq) []DocFreq {
	slices.SortFunc(postings, func(a, b DocFreq) int {
		if a.Freq != b.Freq {
			return cmp.Compare(b.Freq, a.Freq)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return postings
}
