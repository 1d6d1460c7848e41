// Package analytics defines the six text-analytics tasks the paper
// benchmarks (word count, sort, term vector, inverted index, sequence count,
// ranked inverted index), their canonical result types, ground-truth
// reference implementations over raw token streams, and the grammar
// preprocessing shared by the compressed engines (per-rule word lists,
// n-gram counts, and the head/tail structures of §IV-D).
package analytics

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/text-analytics/ntadoc/internal/dict"
)

// Task identifies one of the paper's six benchmark tasks.
type Task int

// The benchmark tasks, in the paper's order.
const (
	TaskWordCount Task = iota
	TaskSort
	TaskTermVector
	TaskInvertedIndex
	TaskSequenceCount
	TaskRankedInvertedIndex
)

// Tasks lists all benchmark tasks in the paper's order.
var Tasks = []Task{TaskWordCount, TaskSort, TaskTermVector, TaskInvertedIndex, TaskSequenceCount, TaskRankedInvertedIndex}

// String returns the paper's name for the task.
func (t Task) String() string {
	switch t {
	case TaskWordCount:
		return "word count"
	case TaskSort:
		return "sort"
	case TaskTermVector:
		return "term vector"
	case TaskInvertedIndex:
		return "inverted index"
	case TaskSequenceCount:
		return "sequence count"
	case TaskRankedInvertedIndex:
		return "ranked inverted index"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// SeqLen is the n-gram length used by sequence count and ranked inverted
// index.  Three-word sequences follow the PUMA benchmark the paper adopts.
const SeqLen = 3

// Seq is one word sequence (n-gram).
type Seq [SeqLen]uint32

// CompareSeq orders sequences lexicographically — the canonical order used
// wherever Seq-keyed maps must be walked deterministically.
func CompareSeq(a, b Seq) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
}

// WordFreq is a word with its frequency; the element type of sort and term
// vector results.
type WordFreq struct {
	Word uint32
	Freq uint64
}

// DocFreq is a document with a frequency, the element of ranked-inverted-
// index postings.
type DocFreq struct {
	Doc  uint32
	Freq uint64
}

// SeqFreq is a sequence with its frequency; the element type of sequence
// count results.
type SeqFreq struct {
	Seq  Seq
	Freq uint64
}

// Postings is the result form of the two posting-list ops: the distinct keys
// in key order (see KeyOrder), every key's list — never empty — carved out of
// one backing array: key i's is Items[Ends[i-1]:Ends[i]], the first from 0.
type Postings[K comparable, T any] struct {
	Keys  []K
	Ends  []uint32
	Items []T
}

// List returns key i's items; the slice aliases Items.
func (p *Postings[K, T]) List(i int) []T {
	lo := uint32(0)
	if i > 0 {
		lo = p.Ends[i-1]
	}
	return p.Items[lo:p.Ends[i]:p.Ends[i]]
}

// Map returns the postings as a map of lists that alias Items, each clipped.
func (p *Postings[K, T]) Map() map[K][]T {
	out := make(map[K][]T, len(p.Keys))
	for i, k := range p.Keys {
		out[k] = p.List(i)
	}
	return out
}

// KeyOrder ranks a dense key space: Rank[k] is key k's position in the order
// and Order[r] the key at position r.  Wire order is the bytewise order of the
// key's wire string under the dictionary — the word, or a sequence's words
// joined by single spaces (sequences of one key, which a word holding a space
// can make, by CompareSeq) — the order encoding/json gives object keys, so a
// result in it streams into its body unsorted.  Keyed results come out in the
// order declared with their key space (FoldScratch.WordOrder, SeqOrder), and
// MergeUnits takes and returns nothing else.  Every executor declares the
// word order; core and tadoc declare the sequence order too, while uncomp's
// sequence results come by its per-run window ids: good for MapResult, never
// for a merge or the encoder.
type KeyOrder struct{ Rank, Order []uint32 }

// CompareWireKeys compares the wire keys of two sequences — their words under
// a Words snapshot, joined by single spaces — bytewise, materializing neither.
// Per-word ranks would not do: "ab" sorts before "abc", but "ab\x1f…", a word
// continuing below the separator, before "ab c".  Distinct sequences that
// join to one key compare equal.
func CompareWireKeys(words []string, a, b Seq) int {
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		wa, wb := dict.WordIn(words, a[i]), dict.WordIn(words, b[i])
		n := 0
		for n < len(wa) && n < len(wb) && wa[n] == wb[n] {
			n++
		}
		switch {
		case n == len(wa) && n == len(wb): // one string under two IDs: no dictionary makes one
		case n < len(wa) && n < len(wb):
			return cmp.Compare(wa[n], wb[n])
		case i == len(a)-1: // the key of the word that ended has ended
			return cmp.Compare(len(wa), len(wb))
		case n == len(wa) && wb[n] != ' ': // a's key goes on with the separator
			return cmp.Compare(' ', wb[n])
		case n == len(wb) && wa[n] != ' ':
			return cmp.Compare(wa[n], ' ')
		default: // a word holds a space exactly where the other ends: only the keys can tell
			return strings.Compare(joinSeq(words, a), joinSeq(words, b))
		}
	}
	return 0
}

// compareWire is wire order: by key, sequences of one key by CompareSeq.
func compareWire(words []string, a, b Seq) int {
	if c := CompareWireKeys(words, a, b); c != 0 {
		return c
	}
	return CompareSeq(a, b)
}

func joinSeq(words []string, q Seq) string {
	parts := make([]string, len(q))
	for i, id := range q {
		parts[i] = dict.WordIn(words, id)
	}
	return strings.Join(parts, " ")
}

// RankSequences returns the wire order of a dense sequence key space: key k
// names seqs[k].
func RankSequences(seqs []Seq, words []string) KeyOrder {
	o := KeyOrder{Rank: make([]uint32, len(seqs)), Order: make([]uint32, len(seqs))}
	for k := range o.Order {
		o.Order[k] = uint32(k)
	}
	slices.SortFunc(o.Order, func(a, b uint32) int { return compareWire(words, seqs[a], seqs[b]) })
	for r, k := range o.Order {
		o.Rank[k] = uint32(r)
	}
	return o
}
