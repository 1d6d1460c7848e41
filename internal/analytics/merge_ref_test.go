package analytics

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
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
// nanoseconds, and leave its inputs untouched.
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
		SortAlphabetical(out, d)
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

// cloneResult deep-copies one unit result.
func cloneResult(res any) any {
	switch r := res.(type) {
	case map[uint32]uint64:
		return maps.Clone(r)
	case []WordFreq:
		return slices.Clone(r)
	case [][]WordFreq:
		out := make([][]WordFreq, len(r))
		for i, vec := range r {
			out[i] = slices.Clone(vec)
		}
		return out
	case map[uint32][]uint32:
		out := make(map[uint32][]uint32, len(r))
		for w, docs := range r {
			out[w] = slices.Clone(docs)
		}
		return out
	case map[Seq]uint64:
		return maps.Clone(r)
	case map[Seq][]DocFreq:
		out := make(map[Seq][]DocFreq, len(r))
		for q, postings := range r {
			out[q] = slices.Clone(postings)
		}
		return out
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
// merge over the shard-count-invariance corpora under every unit layout:
// results deep-equal, modeled charge identical, unit results unmodified.
func TestMergeMatchesReference(t *testing.T) {
	corpora := []datagen.Spec{
		{Name: "small", Seed: 51, Files: 4, TokensPer: 200, Vocab: 30},
		{Name: "manyfiles", Seed: 52, Files: 9, TokensPer: 120, Vocab: 40},
		{Name: "redundant", Seed: 53, Files: 6, TokensPer: 300, Vocab: 15},
	}
	for _, spec := range corpora {
		spec.ZipfS, spec.Phrases, spec.PhraseLen, spec.PhraseProb = 1.3, 30, 5, 0.6
		files, d := spec.GenerateWithDict()
		for _, layout := range mergeLayouts(len(files)) {
			for _, op := range Ops() {
				id := fmt.Sprintf("%s %s %s", spec.Name, layout.name, op.Name())
				units := make([]MergeUnit, len(layout.units))
				for u, docs := range layout.units {
					unitFiles := make([][]uint32, len(docs))
					for i, doc := range docs {
						unitFiles[i] = files[doc]
					}
					units[u] = MergeUnit{Result: shardRefResult(t, op, unitFiles, d)}
					switch {
					case layout.mapped[u]:
						units[u].DocMap = docs
					case len(docs) > 0:
						units[u].DocBase = docs[0]
					}
				}
				before := make([]any, len(units))
				for u := range units {
					before[u] = cloneResult(units[u].Result)
				}

				var refMeter, meter metrics.Meter
				want := refMergeUnits(op, d, len(files), units, &refMeter)
				if whole := shardRefResult(t, op, files, d); !reflect.DeepEqual(want, whole) {
					t.Fatalf("%s: the reference merge itself differs from the whole-corpus result", id)
				}
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
				for u := range units {
					if !reflect.DeepEqual(units[u].Result, before[u]) {
						t.Errorf("%s: MergeShardResults modified unit %d's result", id, u)
					}
				}
			}
		}
	}
}

// TestMergeAliasSurvivesLaterUnits pins the alias rule: a first unit's
// posting list is shared into the merged result, so a later unit extending
// the same key must not write into the first unit's spare capacity.
func TestMergeAliasSurvivesLaterUnits(t *testing.T) {
	d := dict.New()
	d.Intern("w")
	var meter metrics.Meter
	env := mergeEnv{d: d, numFiles: 4, meter: &meter}
	q := Seq{0, 0, 0}

	roomy := append(make([]DocFreq, 0, 8), DocFreq{Doc: 0, Freq: 1}, DocFreq{Doc: 1, Freq: 1})
	first := map[Seq][]DocFreq{q: roomy}
	second := map[Seq][]DocFreq{q: {{Doc: 0, Freq: 5}}}
	got, err := MergeShardResults(RankedInvertedIndexOp{}, env, []any{first, second}, []uint32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Seq][]DocFreq{q: {{Doc: 2, Freq: 5}, {Doc: 0, Freq: 1}, {Doc: 1, Freq: 1}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}
	if spare := roomy[:3][2]; spare != (DocFreq{}) {
		t.Errorf("merge wrote %v into the first unit's spare capacity", spare)
	}

	docs := append(make([]uint32, 0, 8), 0, 1)
	inv, err := MergeShardResults(InvertedIndexOp{}, env,
		[]any{map[uint32][]uint32{0: docs}, map[uint32][]uint32{0: {1}}}, []uint32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint32][]uint32{0: {0, 1, 3}}; !reflect.DeepEqual(inv, want) {
		t.Errorf("merged %v, want %v", inv, want)
	}
	if spare := docs[:3][2]; spare != 0 {
		t.Errorf("merge wrote %d into the first unit's spare capacity", spare)
	}
}

var benchMerged any

// BenchmarkMergeShardResults measures the two-shard gather per task over
// per-shard reference results of a dataset D-shaped corpus.
func BenchmarkMergeShardResults(b *testing.B) {
	spec := datagen.DatasetD
	spec.Files, spec.TokensPer, spec.Vocab = 16, 6000, 20000
	files, d := spec.GenerateWithDict()
	half := len(files) / 2
	env := mergeEnv{d: d, numFiles: len(files), meter: new(metrics.Meter)}
	for _, op := range Ops() {
		results := []any{shardRefResult(b, op, files[:half], d), shardRefResult(b, op, files[half:], d)}
		bases := []uint32{0, uint32(half)}
		b.Run(op.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchMerged, err = MergeShardResults(op, env, results, bases); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
