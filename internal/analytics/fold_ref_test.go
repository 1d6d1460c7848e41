package analytics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// The per-file folds' accumulators as they were first written, kept as the
// oracle for the record-buffer folds: one map[key] = append(map[key], ...)
// per (file, key), a map and a full sort per term vector, a sort per posting
// list, a sort charge per key.  The production folds must return deep-equal
// results and charge the same modeled nanoseconds.

type refTermVectorsFold struct {
	env Env
	k   int
	out [][]WordFreq
}

func (f *refTermVectorsFold) File(doc uint32, c Counts) {
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	counts := make(map[uint32]uint64, c.Len())
	c.Range(func(k, v uint64) bool { counts[uint32(k)] = v; return true })
	f.out[doc] = TermVectorOf(counts, f.k)
}

type refInvertedIndexFold struct {
	env Env
	out map[uint32][]uint32
}

func (f *refInvertedIndexFold) File(doc uint32, c Counts) {
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	c.Range(func(k, _ uint64) bool {
		f.out[uint32(k)] = append(f.out[uint32(k)], doc)
		return true
	})
}

func (f *refInvertedIndexFold) Finish() map[uint32][]uint32 {
	for w := range f.out {
		slices.Sort(f.out[w])
	}
	return f.out
}

type refRankedIndexFold struct {
	env    Env
	perDoc map[uint64][]DocFreq
}

func (f *refRankedIndexFold) File(doc uint32, c Counts) {
	f.env.Charge(c.Len(), metrics.CostHashOp)
	c.Range(func(k, v uint64) bool {
		f.perDoc[k] = append(f.perDoc[k], DocFreq{Doc: doc, Freq: v})
		return true
	})
}

func (f *refRankedIndexFold) Finish() map[Seq][]DocFreq {
	out := make(map[Seq][]DocFreq, len(f.perDoc))
	for k, postings := range f.perDoc {
		f.env.Charge(int64(len(postings)), metrics.CostSortEntry)
		out[f.env.SeqOf(k)] = RankPostingsSorted(postings)
	}
	return out
}

// MapCounts adapts a plain uint64-keyed count map.
type MapCounts map[uint64]uint64

func (m MapCounts) Len() int64 { return int64(len(m)) }
func (m MapCounts) Range(fn func(k, v uint64) bool) {
	for k, v := range m {
		if !fn(k, v) {
			return
		}
	}
}

// foldEnv is a fold environment over a synthetic key space: sequence key k
// resolves to a Seq derived from k.  The scratchEnv wrapper lends the folds
// the scratch that declares the key spaces (ScratchEnv).
type foldEnv struct {
	meter    *metrics.Meter
	numFiles int
}

func (e foldEnv) Dict() *dict.Dictionary { return nil }
func (e foldEnv) NumFiles() int          { return e.numFiles }
func (e foldEnv) Charge(n, perOp int64)  { e.meter.Charge(n, perOp) }
func (e foldEnv) SeqOf(k uint64) Seq     { return Seq{uint32(k), uint32(k >> 7), uint32(k * 31)} }

type scratchEnv struct {
	foldEnv
	scratch *FoldScratch
}

func (e scratchEnv) FoldScratch() *FoldScratch { return e.scratch }

// identityOrder ranks keys [0, n) by themselves.
func identityOrder(n int) KeyOrder {
	o := KeyOrder{Rank: make([]uint32, n), Order: make([]uint32, n)}
	for k := range o.Rank {
		o.Rank[k], o.Order[k] = uint32(k), uint32(k)
	}
	return o
}

// syntheticDocs draws per-document counters over [0, keys): document d holds
// a random subset of the keys with random counts.
func syntheticDocs(seed int64, docs, keys int) []MapCounts {
	rng := rand.New(rand.NewSource(seed))
	out := make([]MapCounts, docs)
	for d := range out {
		out[d] = MapCounts{}
		for n := rng.Intn(keys); n > 0; n-- {
			out[d][uint64(rng.Intn(keys))] = uint64(1 + rng.Intn(5))
		}
	}
	out[docs/2] = MapCounts{} // an empty document
	return out
}

// runPerFileFolds delivers docs to the three per-file folds under env and
// returns their results.
func runPerFileFolds(t *testing.T, env Env, docs []MapCounts, wordKeys bool) (tv, inv, rii any) {
	t.Helper()
	folds := []Fold{RankedInvertedIndexOp{}.NewFold(env)}
	if wordKeys {
		folds = append(folds, TermVectorsOp{K: 4}.NewFold(env), InvertedIndexOp{}.NewFold(env))
	}
	for d, c := range docs {
		for _, f := range folds {
			if err := f.File(uint32(d), c); err != nil {
				t.Fatalf("File(%d): %v", d, err)
			}
		}
	}
	// The posting ops' results are compared in their map form.
	ops := []Op{RankedInvertedIndexOp{}, TermVectorsOp{}, InvertedIndexOp{}}
	res := make([]any, 3)
	for i, f := range folds {
		out, err := f.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		res[i] = MapResult(ops[i], out)
	}
	return res[1], res[2], res[0]
}

// TestPerFileFoldsMatchReference drives the production folds under a
// declared key space twice, so the second run reuses the first's buffers, and
// holds results and charges to the first-written accumulators'.
func TestPerFileFoldsMatchReference(t *testing.T) {
	const keys = 300
	docs := syntheticDocs(5, 40, keys)

	var refMeter metrics.Meter
	renv := foldEnv{meter: &refMeter, numFiles: len(docs)}
	rtv := &refTermVectorsFold{env: renv, k: 4, out: make([][]WordFreq, len(docs))}
	rinv := &refInvertedIndexFold{env: renv, out: map[uint32][]uint32{}}
	rrii := &refRankedIndexFold{env: renv, perDoc: map[uint64][]DocFreq{}}
	for d, c := range docs {
		// The production order: ranked index, term vectors, inverted index.
		rrii.File(uint32(d), c)
		rtv.File(uint32(d), c)
		rinv.File(uint32(d), c)
	}
	wantRII, wantInv := rrii.Finish(), rinv.Finish()

	check := func(label string, env Env, meter *metrics.Meter) {
		t.Helper()
		tv, inv, rii := runPerFileFolds(t, env, docs, true)
		if !reflect.DeepEqual(tv, rtv.out) {
			t.Errorf("%s: term vectors differ from the reference fold's", label)
		}
		if !reflect.DeepEqual(inv, wantInv) {
			t.Errorf("%s: inverted index differs from the reference fold's", label)
		}
		if !reflect.DeepEqual(rii, wantRII) {
			t.Errorf("%s: ranked index differs from the reference fold's", label)
		}
		if got, want := meter.Nanos(), refMeter.Nanos(); got != want {
			t.Errorf("%s: charged %d modeled ns, reference %d", label, got, want)
		}
	}
	scratch := &FoldScratch{WordKeys: keys, SeqKeys: keys, WordOrder: identityOrder(keys)}
	for _, label := range []string{"declared", "declared, buffers reused"} {
		var m metrics.Meter
		scratch.Reset()
		check(label, scratchEnv{foldEnv{meter: &m, numFiles: len(docs)}, scratch}, &m)
	}

	// A key outside a declared key space is reported, not indexed.
	scratch.Reset()
	scratch.SeqKeys = 10
	var m metrics.Meter
	f := RankedInvertedIndexOp{}.NewFold(scratchEnv{foldEnv{meter: &m, numFiles: 1}, scratch})
	if err := f.File(0, MapCounts{11: 1}); err == nil {
		t.Error("a key beyond the declared key space was accepted")
	}
	// So is a word key space declared without its order: the sort op's
	// alphabetical order is the declared word order.
	f = SortOp{}.NewFold(scratchEnv{foldEnv{meter: &m, numFiles: 1}, &FoldScratch{WordKeys: keys}})
	if err := f.Global(MapCounts{1: 1}); err == nil {
		t.Error("a word key space without its order was accepted")
	}
}

// TestFoldsFollowDeclaredOrder runs the four keyed folds under a key space
// with a declared order — a seeded permutation — and by key (the identity
// order for words, none for sequences): the same results in map form, and
// under the permutation every result's keys ascend by rank.
func TestFoldsFollowDeclaredOrder(t *testing.T) {
	const keys = 120
	docs := syntheticDocs(7, 12, keys)
	total := MapCounts{}
	for _, c := range docs {
		for k, v := range c {
			total[k] += v
		}
	}
	order := KeyOrder{Rank: make([]uint32, keys), Order: make([]uint32, keys)}
	for r, k := range rand.New(rand.NewSource(9)).Perm(keys) {
		order.Order[r], order.Rank[k] = uint32(k), uint32(r)
	}
	run := func(scratch *FoldScratch) []any {
		var m metrics.Meter
		env := scratchEnv{foldEnv{meter: &m, numFiles: len(docs)}, scratch}
		ops := []Op{WordCountOp{}, SequenceCountOp{}, InvertedIndexOp{}, RankedInvertedIndexOp{}}
		out := make([]any, len(ops))
		for i, op := range ops {
			f := op.NewFold(env)
			if op.Scope() == ScopeGlobal {
				if err := f.Global(total); err != nil {
					t.Fatal(err)
				}
			}
			for d, c := range docs {
				if op.Scope() == ScopePerFile {
					if err := f.File(uint32(d), c); err != nil {
						t.Fatal(err)
					}
				}
			}
			var err error
			if out[i], err = f.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	byKey := run(&FoldScratch{WordKeys: keys, SeqKeys: keys, WordOrder: identityOrder(keys)})
	ranked := run(&FoldScratch{WordKeys: keys, SeqKeys: keys, WordOrder: order, SeqOrder: order})
	seqKey := map[Seq]uint32{}
	for k := uint32(0); k < keys; k++ {
		seqKey[foldEnv{}.SeqOf(uint64(k))] = k
	}
	for i, op := range []Op{WordCountOp{}, SequenceCountOp{}, InvertedIndexOp{}, RankedInvertedIndexOp{}} {
		if !reflect.DeepEqual(MapResult(op, ranked[i]), MapResult(op, byKey[i])) {
			t.Errorf("%s: result under a declared order differs in map form", op.Name())
		}
		var ks []uint32
		switch r := ranked[i].(type) {
		case []WordFreq:
			for _, wf := range r {
				ks = append(ks, wf.Word)
			}
		case []SeqFreq:
			for _, sf := range r {
				ks = append(ks, seqKey[sf.Seq])
			}
		case *Postings[uint32, uint32]:
			ks = r.Keys
		case *Postings[Seq, DocFreq]:
			for _, q := range r.Keys {
				ks = append(ks, seqKey[q])
			}
		}
		if len(ks) < keys/2 {
			t.Fatalf("%s: only %d keys", op.Name(), len(ks))
		}
		if !slices.IsSortedFunc(ks, func(a, b uint32) int { return int(order.Rank[a]) - int(order.Rank[b]) }) {
			t.Errorf("%s: keys are not in the declared order", op.Name())
		}
	}
}
