package analytics

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// refMergeUnits is the merge as it was first written, kept as the oracle for
// the production folds: every unit is concatenated into a fresh accumulator
// that grows as it goes, every posting list is re-sorted or re-ranked whether
// or not it needs it, and every modeled charge is made entry by entry.  The
// production merge must return deep-equal results, charge the same modeled
// nanoseconds, and leave its inputs untouched.  Both work in the map forms of
// the reference implementations: units holds reference results, and the
// production merge is handed their wireForm.
func refMergeUnits(op Op, d *dict.Dictionary, numFiles int, units []MergeUnit, meter *metrics.Meter) any {
	global := func(u MergeUnit, doc uint32) uint32 {
		if u.DocMap != nil {
			return u.DocMap[doc]
		}
		return doc + u.DocBase
	}
	switch op.Task() {
	case TaskWordCount:
		out := map[uint32]uint64{}
		for _, u := range units {
			in := u.Result.(map[uint32]uint64)
			meter.Charge(int64(len(in)), metrics.CostMergeEntry)
			for w, n := range in {
				out[w] += n
			}
		}
		return out
	case TaskSort:
		acc := map[uint32]uint64{}
		for _, u := range units {
			in := u.Result.([]WordFreq)
			meter.Charge(int64(len(in)), metrics.CostMergeEntry)
			for _, wf := range in {
				acc[wf.Word] += wf.Freq
			}
		}
		out := make([]WordFreq, 0, len(acc))
		for w, n := range acc {
			out = append(out, WordFreq{Word: w, Freq: n})
		}
		meter.Charge(int64(len(out)), metrics.CostSortEntry)
		sortAlphabetical(out, d)
		return out
	case TaskTermVector:
		out := make([][]WordFreq, numFiles)
		for _, u := range units {
			in := u.Result.([][]WordFreq)
			meter.Charge(int64(len(in)), metrics.CostMergeEntry)
			for i, vec := range in {
				out[global(u, uint32(i))] = vec
			}
		}
		return out
	case TaskInvertedIndex:
		out := map[uint32][]uint32{}
		for _, u := range units {
			for w, docs := range u.Result.(map[uint32][]uint32) {
				meter.Charge(int64(len(docs)), metrics.CostMergeEntry)
				for _, doc := range docs {
					out[w] = append(out[w], global(u, doc))
				}
			}
		}
		for w := range out {
			slices.Sort(out[w])
		}
		return out
	case TaskSequenceCount:
		out := map[Seq]uint64{}
		for _, u := range units {
			in := u.Result.(map[Seq]uint64)
			meter.Charge(int64(len(in)), metrics.CostSeqOp)
			for q, n := range in {
				out[q] += n
			}
		}
		return out
	case TaskRankedInvertedIndex:
		merged := map[Seq][]DocFreq{}
		for _, u := range units {
			for q, postings := range u.Result.(map[Seq][]DocFreq) {
				meter.Charge(int64(len(postings)), metrics.CostMergeEntry)
				for _, p := range postings {
					merged[q] = append(merged[q], DocFreq{Doc: global(u, p.Doc), Freq: p.Freq})
				}
			}
		}
		out := make(map[Seq][]DocFreq, len(merged))
		for q, postings := range merged {
			meter.Charge(int64(len(postings)), metrics.CostSortEntry)
			out[q] = RankPostingsSorted(postings)
		}
		return out
	}
	panic("unknown task")
}

// wireForm puts a reference result into the form a core engine returns it
// in: a keyed op's map becomes its arrays in wire order.  The oracle sorts by
// the key strings themselves, joined keys materialized, where production
// compares rank tables and walks the keys in place.
func wireForm(op Op, res any, d *dict.Dictionary) any {
	words := d.Words()
	byWord := func(a, b uint32) int { return strings.Compare(words[a], words[b]) }
	bySeq := func(a, b Seq) int {
		if c := strings.Compare(joinSeq(words, a), joinSeq(words, b)); c != 0 {
			return c
		}
		return CompareSeq(a, b)
	}
	switch r := res.(type) {
	case map[uint32]uint64:
		out := make([]WordFreq, 0, len(r))
		for w, n := range r {
			out = append(out, WordFreq{Word: w, Freq: n})
		}
		slices.SortFunc(out, func(a, b WordFreq) int { return byWord(a.Word, b.Word) })
		return out
	case map[Seq]uint64:
		out := make([]SeqFreq, 0, len(r))
		for q, n := range r {
			out = append(out, SeqFreq{Seq: q, Freq: n})
		}
		slices.SortFunc(out, func(a, b SeqFreq) int { return bySeq(a.Seq, b.Seq) })
		return out
	case map[uint32][]uint32:
		return postingsOf(r, byWord)
	case map[Seq][]DocFreq:
		return postingsOf(r, bySeq)
	}
	return res
}

func postingsOf[K comparable, T any](m map[K][]T, cmp func(a, b K) int) *Postings[K, T] {
	p := &Postings[K, T]{Keys: make([]K, 0, len(m)), Ends: make([]uint32, 0, len(m)), Items: []T{}}
	for k := range m {
		p.Keys = append(p.Keys, k)
	}
	slices.SortFunc(p.Keys, cmp)
	for _, k := range p.Keys {
		p.Items = append(p.Items, m[k]...)
		p.Ends = append(p.Ends, uint32(len(p.Items)))
	}
	return p
}

// cloneResult deep-copies one unit result.
func cloneResult(res any) any {
	switch r := res.(type) {
	case []WordFreq:
		return slices.Clone(r)
	case []SeqFreq:
		return slices.Clone(r)
	case [][]WordFreq:
		out := make([][]WordFreq, len(r))
		for i, vec := range r {
			out[i] = slices.Clone(vec)
		}
		return out
	case *Postings[uint32, uint32]:
		return &Postings[uint32, uint32]{Keys: slices.Clone(r.Keys), Ends: slices.Clone(r.Ends), Items: slices.Clone(r.Items)}
	case *Postings[Seq, DocFreq]:
		return &Postings[Seq, DocFreq]{Keys: slices.Clone(r.Keys), Ends: slices.Clone(r.Ends), Items: slices.Clone(r.Items)}
	}
	panic(fmt.Sprintf("unknown result type %T", res))
}

// mergeLayout assigns a corpus's documents to units: layout[u] lists unit
// u's documents as global indices, in unit-local order.
type mergeLayout struct {
	name   string
	units  [][]uint32
	mapped []bool // per unit: merge under a DocMap rather than a DocBase
}

// mergeLayouts are the unit shapes the engines produce: K contiguous shards
// (MergeShard only), and the live-ingest shapes — shard bases followed by
// delta units whose appended documents interleave globally, before and after
// a compaction has folded appended documents into the bases.
func mergeLayouts(numFiles int) []mergeLayout {
	var out []mergeLayout
	for k := 1; k <= 4; k++ {
		l := mergeLayout{name: fmt.Sprintf("shards=%d", k), units: make([][]uint32, k), mapped: make([]bool, k)}
		for doc := 0; doc < numFiles; doc++ {
			u := doc * k / numFiles
			l.units[u] = append(l.units[u], uint32(doc))
		}
		out = append(out, l)
	}
	// Two shard bases over the first half, two deltas sharing the second half
	// document by document.
	half := numFiles / 2
	ingest := mergeLayout{name: "ingest", units: make([][]uint32, 4), mapped: []bool{false, false, true, true}}
	for doc := 0; doc < numFiles; doc++ {
		switch {
		case doc < half/2:
			ingest.units[0] = append(ingest.units[0], uint32(doc))
		case doc < half:
			ingest.units[1] = append(ingest.units[1], uint32(doc))
		default:
			ingest.units[2+doc%2] = append(ingest.units[2+doc%2], uint32(doc))
		}
	}
	out = append(out, ingest)
	// After a compaction the bases themselves interleave: every unit mapped.
	compacted := mergeLayout{name: "compacted", units: make([][]uint32, 3), mapped: []bool{true, true, true}}
	for doc := 0; doc < numFiles; doc++ {
		compacted.units[doc%3] = append(compacted.units[doc%3], uint32(doc))
	}
	return append(out, compacted)
}

// TestMergeMatchesReference runs the production merge and the reference
// merge over the shard-count-invariance corpora and the adversarial
// vocabulary under every unit layout: the merged arrays are the wire form of
// the reference's result (so equal after conversion, and in wire order),
// modeled charge identical, unit results unmodified.
func TestMergeMatchesReference(t *testing.T) {
	for _, spec := range mergeRefCorpora {
		files, d := mergeRefCorpus(spec)
		for _, layout := range mergeLayouts(len(files)) {
			for _, op := range Ops() {
				id := fmt.Sprintf("%s %s %s", spec.Name, layout.name, op.Name())
				refUnits, units := make([]MergeUnit, len(layout.units)), make([]MergeUnit, len(layout.units))
				for u, docs := range layout.units {
					unitFiles := make([][]uint32, len(docs))
					for i, doc := range docs {
						unitFiles[i] = files[doc]
					}
					refUnits[u] = MergeUnit{Result: shardRefResult(t, op, unitFiles, d)}
					switch {
					case layout.mapped[u]:
						refUnits[u].DocMap = docs
					case len(docs) > 0:
						refUnits[u].DocBase = docs[0]
					}
					units[u] = refUnits[u]
					units[u].Result = wireForm(op, refUnits[u].Result, d)
				}
				before := make([]any, len(units))
				for u := range units {
					before[u] = cloneResult(units[u].Result)
				}

				var refMeter, meter metrics.Meter
				whole := shardRefResult(t, op, files, d)
				if !reflect.DeepEqual(refMergeUnits(op, d, len(files), refUnits, &refMeter), whole) {
					t.Fatalf("%s: the reference merge itself differs from the whole-corpus result", id)
				}
				want := wireForm(op, whole, d)
				got, err := MergeUnits(op, mergeEnv{d: d, numFiles: len(files), meter: &meter}, units)
				if err != nil {
					t.Fatalf("%s: MergeUnits: %v", id, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: merged result differs from the reference merge\n got %v\nwant %v", id, got, want)
				}
				if meter.Nanos() != refMeter.Nanos() {
					t.Errorf("%s: charged %d modeled ns, reference %d", id, meter.Nanos(), refMeter.Nanos())
				}
				for u := range units {
					if !reflect.DeepEqual(units[u].Result, before[u]) {
						t.Errorf("%s: merge modified unit %d's result", id, u)
					}
				}

				if slices.Contains(layout.mapped, true) {
					continue
				}
				// The contiguous layouts also go through MergeShardResults.
				results, bases := make([]any, len(units)), make([]uint32, len(units))
				for u := range units {
					results[u], bases[u] = units[u].Result, units[u].DocBase
				}
				var shardMeter metrics.Meter
				got, err = MergeShardResults(op, mergeEnv{d: d, numFiles: len(files), meter: &shardMeter}, results, bases)
				if err != nil {
					t.Fatalf("%s: MergeShardResults: %v", id, err)
				}
				if !reflect.DeepEqual(got, want) || shardMeter.Nanos() != refMeter.Nanos() {
					t.Errorf("%s: MergeShardResults differs from the reference merge (charged %d, reference %d)",
						id, shardMeter.Nanos(), refMeter.Nanos())
				}
			}
		}
	}
}

// mergeRefCorpora are the shard-count-invariance corpora and the adversarial
// vocabulary the merge oracles run over.
var mergeRefCorpora = []datagen.Spec{
	{Name: "small", Seed: 51, Files: 4, TokensPer: 200, Vocab: 30},
	{Name: "manyfiles", Seed: 52, Files: 9, TokensPer: 120, Vocab: 40},
	{Name: "redundant", Seed: 53, Files: 6, TokensPer: 300, Vocab: 15},
	{Name: "adversarial", Seed: 54, Files: 5, TokensPer: 160, Vocab: len(adversarialWords)},
}

// mergeRefCorpus generates one of mergeRefCorpora, phrase-heavy so units
// share keys; the adversarial corpus's word IDs name adversarialWords.
func mergeRefCorpus(spec datagen.Spec) ([][]uint32, *dict.Dictionary) {
	spec.ZipfS, spec.Phrases, spec.PhraseLen, spec.PhraseProb = 1.3, 30, 5, 0.6
	files, d := spec.GenerateWithDict()
	if spec.Name == "adversarial" {
		d = dict.New()
		for _, w := range adversarialWords {
			d.Intern(w)
		}
	}
	return files, d
}

// TestMergePartsMatchSerial cuts every op's merge into P key-range parts,
// run concurrently, each on a meter of its own, over the oracle's corpora
// and unit layouts: the stitched result deep-equals the one-part merge's,
// and the parts' charges sum to the one-part charge to the nanosecond.
func TestMergePartsMatchSerial(t *testing.T) {
	for _, spec := range mergeRefCorpora {
		files, d := mergeRefCorpus(spec)
		for _, layout := range mergeLayouts(len(files)) {
			for _, op := range Ops() {
				units := make([]MergeUnit, len(layout.units))
				for u, docs := range layout.units {
					unitFiles := make([][]uint32, len(docs))
					for i, doc := range docs {
						unitFiles[i] = files[doc]
					}
					units[u].Result = wireForm(op, shardRefResult(t, op, unitFiles, d), d)
					switch {
					case layout.mapped[u]:
						units[u].DocMap = docs
					case len(docs) > 0:
						units[u].DocBase = docs[0]
					}
				}
				var serialMeter metrics.Meter
				want, err := MergeUnits(op, mergeEnv{d: d, numFiles: len(files), meter: &serialMeter}, units)
				if err != nil {
					t.Fatal(err)
				}
				for parts := 1; parts <= 4; parts++ {
					id := fmt.Sprintf("%s %s %s parts=%d", spec.Name, layout.name, op.Name(), parts)
					var stitchMeter metrics.Meter
					j, err := PlanMerge(op, mergeEnv{d: d, numFiles: len(files), meter: &stitchMeter}, units, parts)
					if err != nil {
						t.Fatalf("%s: PlanMerge: %v", id, err)
					}
					meters, errs := make([]metrics.Meter, j.Parts()), make([]error, j.Parts())
					var wg sync.WaitGroup
					for p := range meters {
						wg.Add(1)
						go func() {
							defer wg.Done()
							errs[p] = j.Run(p, mergeEnv{d: d, numFiles: len(files), meter: &meters[p]})
						}()
					}
					wg.Wait()
					var charged int64
					for p := range meters {
						if errs[p] != nil {
							t.Fatalf("%s: part %d: %v", id, p, errs[p])
						}
						charged += meters[p].Nanos()
					}
					if got := j.Finish(mergeEnv{d: d, numFiles: len(files), meter: &stitchMeter}); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: parted result differs from the one-part merge\n got %v\nwant %v", id, got, want)
					}
					if charged != serialMeter.Nanos() {
						t.Errorf("%s: parts charged %d modeled ns, one part %d", id, charged, serialMeter.Nanos())
					}
					if parts == 1 && stitchMeter.Nanos() != 0 {
						t.Errorf("%s: a one-part merge charged %d ns of stitch", id, stitchMeter.Nanos())
					}
				}
			}
		}
	}
}

// adversarialWords is the serving tests' vocabulary (internal/server): words
// that are prefixes of one another, continue below the separator or hold it,
// so the order of joined keys is not the order of their words' ranks.
var adversarialWords = []string{
	"ab", "abc", "a", "b", "c", "abcd",
	"<tag>", "a&b", `say "hi"`, `back\slash`, "tab", "tab\there", "nl\nhere", "bell\x07", "del\x7f",
	"naïve", "日本語", "sep\u2028line", "sep\u2029para", "bad\xffutf8", "cut\xe6\x97", "\x00",
	"emoji😀", "Zed", "zed", "_", "~", "x", "x\x1fy", "a b", "b c",
}

// TestMergeDocMapBounds: a unit document its docmap does not cover is an
// error of the merge, not an index out of range.
func TestMergeDocMapBounds(t *testing.T) {
	files, d := mergeCorpus(t)
	for _, op := range []Op{InvertedIndexOp{}, RankedInvertedIndexOp{}, TermVectorsOp{K: 3}} {
		var meter metrics.Meter
		unit := MergeUnit{Result: wireForm(op, shardRefResult(t, op, files, d), d), DocMap: []uint32{0, 1}}
		if _, err := MergeUnits(op, mergeEnv{d: d, numFiles: len(files), meter: &meter}, []MergeUnit{unit}); err == nil {
			t.Errorf("%s: a %d-document unit merged under a 2-document map", op.Name(), len(files))
		}
	}
}

// TestMergeSharesNothing pins the ownership rule: a merged result is arrays
// of its own, whatever the units — one unit or several, lists one unit
// contributed alone or lists re-ranked — so writing to it, or appending to
// one of its lists, reaches no unit result.
func TestMergeSharesNothing(t *testing.T) {
	files, d := mergeCorpus(t)
	for _, split := range [][]int{{5}, {2, 3}} {
		for _, op := range Ops() {
			var meter metrics.Meter
			var results, before []any
			var bases []uint32
			next := 0
			for _, n := range split {
				res := wireForm(op, shardRefResult(t, op, files[next:next+n], d), d)
				results, before, bases = append(results, res), append(before, cloneResult(res)), append(bases, uint32(next))
				next += n
			}
			got, err := MergeShardResults(op, mergeEnv{d: d, numFiles: len(files), meter: &meter}, results, bases)
			if err != nil {
				t.Fatal(err)
			}
			switch r := got.(type) {
			case []WordFreq:
				clear(r[:cap(r)])
			case []SeqFreq:
				clear(r[:cap(r)])
			case [][]WordFreq:
				clear(r) // the vectors themselves are shared: a document's is final
			case *Postings[uint32, uint32]:
				clear(r.Keys[:cap(r.Keys)])
				clear(r.Ends[:cap(r.Ends)])
				clear(r.Items[:cap(r.Items)])
			case *Postings[Seq, DocFreq]:
				_ = append(r.List(0), DocFreq{Doc: 1 << 30})
				clear(r.Keys[:cap(r.Keys)])
				clear(r.Ends[:cap(r.Ends)])
				clear(r.Items[:cap(r.Items)])
			}
			if !reflect.DeepEqual(results, before) {
				t.Errorf("%s split %v: writing to the merged result changed a unit result", op.Name(), split)
			}
		}
	}
}

var benchMerged any

// BenchmarkMergeShardResults measures the two-shard gather per task over
// per-shard reference results of a dataset D-shaped corpus, and the ranked
// index — the merge with the most keys and the most bytes — over the
// `cold-miss` shape too: dataset D's first 32 documents in two units, where
// the K-way merge walks 10^5 sequence keys a side.  On that shape the whole
// six-task gather runs as the coordinator runs it, whole (parts=1) and cut
// into two key-range parts on two goroutines, then stitched (parts=2).
func BenchmarkMergeShardResults(b *testing.B) {
	spec := datagen.DatasetD
	spec.Files, spec.TokensPer, spec.Vocab = 16, 6000, 20000
	run := func(name string, op Op, files [][]uint32, d *dict.Dictionary) {
		half := len(files) / 2
		env := mergeEnv{d: d, numFiles: len(files), meter: new(metrics.Meter)}
		results := []any{
			wireForm(op, shardRefResult(b, op, files[:half], d), d),
			wireForm(op, shardRefResult(b, op, files[half:], d), d),
		}
		bases := []uint32{0, uint32(half)}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchMerged, err = MergeShardResults(op, env, results, bases); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	files, d := spec.GenerateWithDict()
	for _, op := range Ops() {
		run(op.Name(), op, files, d)
	}
	d32 := datagen.DatasetD
	d32.Files = 32
	files, d = d32.GenerateWithDict()
	run("rankedindex/D32", RankedInvertedIndexOp{}, files, d)

	half := len(files) / 2
	units := make([][]MergeUnit, len(Ops()))
	for j, op := range Ops() {
		units[j] = []MergeUnit{
			{Result: wireForm(op, shardRefResult(b, op, files[:half], d), d)},
			{Result: wireForm(op, shardRefResult(b, op, files[half:], d), d), DocBase: uint32(half)},
		}
	}
	for _, parts := range []int{1, 2} {
		b.Run(fmt.Sprintf("gather/D32/parts=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			meters := make([]metrics.Meter, parts+1)
			env := func(m int) Env { return mergeEnv{d: d, numFiles: len(files), meter: &meters[m]} }
			jobs := make([]*MergeJob, len(units))
			for i := 0; i < b.N; i++ {
				for j, op := range Ops() {
					var err error
					if jobs[j], err = PlanMerge(op, env(parts), units[j], parts); err != nil {
						b.Fatal(err)
					}
				}
				lane := func(p int) {
					for _, job := range jobs {
						if p < job.Parts() {
							if err := job.Run(p, env(p)); err != nil {
								b.Error(err)
							}
						}
					}
				}
				if parts == 1 {
					lane(0)
				} else {
					var wg sync.WaitGroup
					for p := 0; p < parts; p++ {
						wg.Add(1)
						go func() { defer wg.Done(); lane(p) }()
					}
					wg.Wait()
				}
				for _, job := range jobs {
					benchMerged = job.Finish(env(parts))
				}
			}
		})
	}
}

// sortAlphabetical orders (word, freq) pairs by the word strings, through the
// dictionary's alphabetical rank table: integer compares, and no vocabulary
// sort per call.
func sortAlphabetical(wf []WordFreq, d *dict.Dictionary) {
	rank, _ := d.Alphabetical()
	slices.SortFunc(wf, func(a, b WordFreq) int { return cmp.Compare(rank[a.Word], rank[b.Word]) })
}
