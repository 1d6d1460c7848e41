package analytics

import (
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// mergeEnv is the coordinator-side Env a sharded engine offers merging
// folds: whole-corpus shape, no sequence-key resolution (shard results are
// already Seq-keyed).
type mergeEnv struct {
	d        *dict.Dictionary
	numFiles int
	meter    *metrics.Meter
}

func (e mergeEnv) Dict() *dict.Dictionary { return e.d }
func (e mergeEnv) NumFiles() int          { return e.numFiles }
func (e mergeEnv) SeqOf(uint64) Seq       { panic("merge env resolves no sequence keys") }
func (e mergeEnv) Charge(n, perOp int64)  { e.meter.Charge(n, perOp) }

// mergeCorpus builds a deterministic multi-file corpus with enough overlap
// between files for cross-shard key collisions in every key space.
func mergeCorpus(t *testing.T) ([][]uint32, *dict.Dictionary) {
	t.Helper()
	d := dict.New()
	texts := [][]string{
		{"the", "quick", "brown", "fox", "jumps", "over", "the", "lazy", "dog"},
		{"the", "quick", "red", "fox", "naps", "under", "the", "busy", "dog"},
		{"a", "lazy", "dog", "naps", "over", "the", "quick", "brown", "fox"},
		{"red", "dog", "jumps", "the", "fox", "the", "fox", "the", "fox"},
		{"under", "a", "brown", "dog", "the", "lazy", "fox", "naps", "alone"},
	}
	files := make([][]uint32, len(texts))
	for i, words := range texts {
		for _, w := range words {
			files[i] = append(files[i], d.Intern(w))
		}
	}
	return files, d
}

// shardRefResult computes the op's reference result over one shard's files
// alone — what that shard's engine would produce, in map form (wireForm puts
// it into the engine's).
func shardRefResult(t testing.TB, op Op, files [][]uint32, d *dict.Dictionary) any {
	t.Helper()
	switch op.Task() {
	case TaskWordCount:
		return RefWordCount(files)
	case TaskSort:
		return RefSort(files, d)
	case TaskTermVector:
		return RefTermVector(files, op.(TermVectorsOp).K)
	case TaskInvertedIndex:
		return RefInvertedIndex(files)
	case TaskSequenceCount:
		return RefSequenceCount(files)
	case TaskRankedInvertedIndex:
		return RefRankedInvertedIndex(files)
	default:
		t.Fatalf("unknown task %v", op.Task())
		return nil
	}
}

// TestMergeShardResults checks, for every registered op and several shard
// splits, that merging per-shard reference results reproduces the
// whole-corpus reference bit-for-bit.
func TestMergeShardResults(t *testing.T) {
	files, d := mergeCorpus(t)
	splits := [][]int{
		{5},          // one shard: merge must be the identity
		{1, 4},       // skewed
		{2, 3},       // balanced
		{2, 2, 1},    // three shards
		{1, 1, 1, 2}, // singleton shards
	}
	for _, op := range Ops() {
		want := wireForm(op, shardRefResult(t, op, files, d), d)
		for _, split := range splits {
			var meter metrics.Meter
			env := mergeEnv{d: d, numFiles: len(files), meter: &meter}
			var results []any
			var bases []uint32
			next := 0
			for _, n := range split {
				shard := files[next : next+n]
				results = append(results, wireForm(op, shardRefResult(t, op, shard, d), d))
				bases = append(bases, uint32(next))
				next += n
			}
			got, err := MergeShardResults(op, env, results, bases)
			if err != nil {
				t.Fatalf("%s split %v: %v", op.Name(), split, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s split %v: merged result differs from whole-corpus reference\n got %v\nwant %v",
					op.Name(), split, got, want)
			}
			if len(split) > 1 && meter.Nanos() == 0 {
				t.Errorf("%s split %v: merge charged no modeled CPU", op.Name(), split)
			}
		}
	}
}

// TestMergeShardResultsEmptyFold checks every op's merge when one shard
// contributes an empty fold: a shard holding no documents (or only empty
// documents) returns an empty result — an empty map, nil slices, or
// zero-valued per-file entries depending on the op — and merging it must
// neither fail nor disturb the other shards' contributions.
func TestMergeShardResultsEmptyFold(t *testing.T) {
	files, d := mergeCorpus(t)
	// splits partition the corpus; a zero entry is a shard with no files.
	splits := [][]int{
		{0, 5},       // empty shard first
		{2, 0, 3},    // empty shard in the middle
		{5, 0},       // empty shard last
		{0, 0, 5, 0}, // several empty shards
	}
	for _, op := range Ops() {
		want := wireForm(op, shardRefResult(t, op, files, d), d)
		for _, split := range splits {
			var meter metrics.Meter
			env := mergeEnv{d: d, numFiles: len(files), meter: &meter}
			var results []any
			var bases []uint32
			next := 0
			for _, n := range split {
				shard := files[next : next+n]
				results = append(results, wireForm(op, shardRefResult(t, op, shard, d), d))
				bases = append(bases, uint32(next))
				next += n
			}
			got, err := MergeShardResults(op, env, results, bases)
			if err != nil {
				t.Fatalf("%s split %v: %v", op.Name(), split, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s split %v: merge with empty shard differs from whole-corpus reference\n got %v\nwant %v",
					op.Name(), split, got, want)
			}
		}
	}

	// A shard whose documents exist but are all empty: its per-file entries
	// are zero-valued rather than absent, and global document indices must
	// still land on the right files.
	padded := [][]uint32{files[0], {}, {}, files[1]}
	for _, op := range Ops() {
		want := wireForm(op, shardRefResult(t, op, padded, d), d)
		var meter metrics.Meter
		env := mergeEnv{d: d, numFiles: len(padded), meter: &meter}
		results := []any{
			wireForm(op, shardRefResult(t, op, padded[:1], d), d),
			wireForm(op, shardRefResult(t, op, padded[1:3], d), d), // two empty documents
			wireForm(op, shardRefResult(t, op, padded[3:], d), d),
		}
		got, err := MergeShardResults(op, env, results, []uint32{0, 1, 3})
		if err != nil {
			t.Fatalf("%s empty-document shard: %v", op.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merge with empty-document shard differs from reference\n got %v\nwant %v",
				op.Name(), got, want)
		}
	}
}

// TestMergeShardResultsRejectsWrongType ensures a mismatched shard result
// type surfaces as an error, not a corrupt merge.
func TestMergeShardResultsRejectsWrongType(t *testing.T) {
	files, d := mergeCorpus(t)
	var meter metrics.Meter
	env := mergeEnv{d: d, numFiles: len(files), meter: &meter}
	for _, op := range Ops() {
		if _, err := MergeShardResults(op, env, []any{struct{}{}}, []uint32{0}); err == nil {
			t.Errorf("%s: merging a bogus result type did not fail", op.Name())
		}
	}
}

// TestMergeDocBaseBounds ensures per-file merges reject shards that extend
// past the declared corpus size.
func TestMergeDocBaseBounds(t *testing.T) {
	files, d := mergeCorpus(t)
	var meter metrics.Meter
	env := mergeEnv{d: d, numFiles: 2, meter: &meter} // corpus said 2 docs
	for _, op := range []Op{TermVectorsOp{K: DefaultTermVectorK}, InvertedIndexOp{}, RankedInvertedIndexOp{}} {
		res := wireForm(op, shardRefResult(t, op, files, d), d) // but the shard carries 5
		if _, err := MergeShardResults(op, env, []any{res}, []uint32{0}); err == nil {
			t.Errorf("%s merge beyond NumFiles did not fail", op.Name())
		}
	}
}
