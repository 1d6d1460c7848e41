package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// oracleCorpora are the three corpus shapes of the oracle tests: a few large
// documents, many small ones, and a highly redundant one.
var oracleCorpora = []struct {
	name                 string
	seed                 int64
	files, tokens, vocab int
}{
	{"deep", 71, 4, 400, 60},
	{"manyfiles", 72, 24, 50, 40},
	{"redundant", 73, 6, 300, 15},
}

// opBatches is the six ops each alone, then all six fused.
func opBatches() (batches [][]analytics.Op, labels []string) {
	for _, op := range analytics.Ops() {
		batches = append(batches, []analytics.Op{op})
		labels = append(labels, op.Name())
	}
	return append(batches, analytics.Ops()), append(labels, "fused")
}

// mapResults puts a batch's results into map form: the reference session
// declares no sequence order, so its sequence-keyed results arrive by key
// where the workspace session's arrive in wire order.
func mapResults(ops []analytics.Op, results []any) []any {
	out := make([]any, len(results))
	for i, res := range results {
		out[i] = analytics.MapResult(ops[i], res)
	}
	return out
}

// shardSet builds a K-shard engine set over files.
func shardSet(t testing.TB, files [][]uint32, d *dict.Dictionary, k int, opts Options) *ShardedEngine {
	t.Helper()
	gs := shardGrammars(t, files, uint32(d.Len()), k)
	se, err := NewSharded(gs, d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })
	return se
}

// TestSessionMatchesReference holds the workspace-based session to the
// first-written map-based one (session_ref_test.go): for every op alone and
// the fused batch, on three corpora, in both per-file directions, pruned and
// raw, unsharded and two-way sharded, each shard's lane must return
// deep-equal results, charge its meter the same modeled nanoseconds, and
// leave its device with statistics equal field by field.
func TestSessionMatchesReference(t *testing.T) {
	batches, labels := opBatches()
	for _, tc := range oracleCorpora {
		files, d, _ := corpus(t, tc.seed, tc.files, tc.tokens, tc.vocab)
		for _, strat := range []Strategy{TopDown, BottomUp} {
			for _, raw := range []bool{false, true} {
				for _, k := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/raw=%v/K=%d", tc.name, strat, raw, k)
					t.Run(name, func(t *testing.T) {
						opts := Options{Sequences: true, Strategy: strat, NoPruning: raw}
						// Two identical builds: device statistics are cumulative,
						// so each side reads its own devices.
						a, b := shardSet(t, files, d, k, opts), shardSet(t, files, d, k, opts)
						ss := a.NewSession()
						for i := 0; i < k; i++ {
							got, ref := a.Shard(i).newSession(ss.ws[i]), newRefSession(b.Shard(i))
							for bi, ops := range batches {
								want, err := ref.RunOps(ops)
								if err != nil {
									t.Fatalf("%s: reference: %v", labels[bi], err)
								}
								res, err := got.RunOps(ops)
								if err != nil {
									t.Fatalf("%s: session: %v", labels[bi], err)
								}
								if !reflect.DeepEqual(mapResults(ops, res), mapResults(ops, want)) {
									t.Errorf("shard %d %s: results differ from the reference session's", i, labels[bi])
								}
								if g, w := got.Meter().Nanos(), ref.meter.Nanos(); g != w {
									t.Errorf("shard %d %s: meter at %d modeled ns, reference %d", i, labels[bi], g, w)
								}
								gs, ws := a.Shard(i).Device().Stats(), b.Shard(i).Device().Stats()
								if gs != ws {
									gv, wv := reflect.ValueOf(gs), reflect.ValueOf(ws)
									for f := 0; f < gv.NumField(); f++ {
										if gv.Field(f).Int() != wv.Field(f).Int() {
											t.Errorf("shard %d %s: device %s = %d, reference %d", i, labels[bi],
												gv.Type().Field(f).Name, gv.Field(f).Int(), wv.Field(f).Int())
										}
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestResultsSurviveNextRun: nothing a run returns may alias workspace
// memory.  The results of run A — each lane's and the merged ones handed to
// the caller — must still deep-equal their copies after runs B and C have
// reused the same session's workspaces, including a merged result produced
// in between (the merge reads lane results; it must share nothing with them).
func TestResultsSurviveNextRun(t *testing.T) {
	for _, strat := range []Strategy{TopDown, BottomUp} {
		t.Run(strat.String(), func(t *testing.T) {
			files, d, _ := corpus(t, 74, 10, 200, 40)
			se := shardSet(t, files, d, 2, Options{Sequences: true, Strategy: strat})
			ss := se.NewSession()
			ops := analytics.Ops()

			laneA, err := se.Shard(0).newSession(ss.ws[0]).RunOps(ops)
			if err != nil {
				t.Fatalf("lane run A: %v", err)
			}
			mergedA, err := ss.RunOps(ops)
			if err != nil {
				t.Fatalf("merged run A: %v", err)
			}
			laneCopy, mergedCopy := deepCopyResults(laneA), deepCopyResults(mergedA)

			// Runs B and C: different batches, so buffers are re-lent in a
			// different order and every scratch is overwritten.
			for _, batch := range [][]analytics.Op{
				{analytics.RankedInvertedIndexOp{}, analytics.InvertedIndexOp{}},
				{analytics.TermVectorsOp{K: 3}, analytics.SequenceCountOp{}, analytics.WordCountOp{}},
				ops,
			} {
				if _, err := ss.RunOps(batch); err != nil {
					t.Fatalf("later run: %v", err)
				}
			}
			if !reflect.DeepEqual(laneA, laneCopy) {
				t.Error("lane results of run A changed under later runs")
			}
			if !reflect.DeepEqual(mergedA, mergedCopy) {
				t.Error("merged results of run A changed under later runs")
			}
			// Appending to a returned posting list must not reach a neighbour.
			inv := laneA[3].(*analytics.Postings[uint32, uint32])
			for i := range inv.Keys {
				_ = append(inv.List(i), 1<<30)
			}
			rii := laneA[5].(*analytics.Postings[analytics.Seq, analytics.DocFreq])
			for i := range rii.Keys {
				_ = append(rii.List(i), analytics.DocFreq{Doc: 1 << 30})
			}
			if !reflect.DeepEqual(laneA, laneCopy) {
				t.Error("appending to one posting list overwrote a neighbour's")
			}
		})
	}
}

// deepCopyResults copies a batch's results so that no memory is shared.
func deepCopyResults(results []any) []any {
	out := make([]any, len(results))
	for i, res := range results {
		switch r := res.(type) {
		case []analytics.WordFreq:
			out[i] = append([]analytics.WordFreq{}, r...)
		case []analytics.SeqFreq:
			out[i] = append([]analytics.SeqFreq{}, r...)
		case [][]analytics.WordFreq:
			c := make([][]analytics.WordFreq, len(r))
			for j, vec := range r {
				c[j] = append([]analytics.WordFreq{}, vec...)
			}
			out[i] = c
		case *analytics.Postings[uint32, uint32]:
			out[i] = &analytics.Postings[uint32, uint32]{Keys: slices.Clone(r.Keys), Ends: slices.Clone(r.Ends), Items: slices.Clone(r.Items)}
		case *analytics.Postings[analytics.Seq, analytics.DocFreq]:
			out[i] = &analytics.Postings[analytics.Seq, analytics.DocFreq]{Keys: slices.Clone(r.Keys), Ends: slices.Clone(r.Ends), Items: slices.Clone(r.Items)}
		default:
			panic(fmt.Sprintf("deepCopyResults: %T", res))
		}
	}
	return out
}

// TestSessionCancelEveryPollPoint extends TestSessionCancelMidBatch's sweep
// to every cancellation poll of the fused batch, in both per-file
// directions: whichever poll observes the cancellation, the run must unwind
// with the context's error, and the same session — whatever the abandoned
// run left in its workspace — must then run the batch to results equal to
// the reference session's.
func TestSessionCancelEveryPollPoint(t *testing.T) {
	for _, strat := range []Strategy{TopDown, BottomUp} {
		t.Run(strat.String(), func(t *testing.T) {
			_, d, g := corpus(t, 75, 5, 90, 25)
			opts := Options{Sequences: true, Strategy: strat}
			e := newEngine(t, g, d, opts)
			ops := analytics.Ops()
			want, err := newRefSession(newEngine(t, g, d, opts)).RunOps(ops)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			s := e.NewSession()
			const plenty = 1 << 30
			full := &countdownCtx{left: plenty}
			if _, err := s.RunOpsContext(full, ops); err != nil {
				t.Fatalf("uncanceled run: %v", err)
			}
			polls := plenty - full.left
			if polls < 20 {
				t.Fatalf("the batch polled its context only %d times", polls)
			}
			for n := 0; n < polls; n++ {
				if _, err := s.RunOpsContext(&countdownCtx{left: n}, ops); !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled at poll %d of %d: err = %v, want context.Canceled", n, polls, err)
				}
				got, err := s.RunOpsContext(context.Background(), ops)
				if err != nil {
					t.Fatalf("clean run after cancel at poll %d: %v", n, err)
				}
				if !reflect.DeepEqual(mapResults(ops, got), mapResults(ops, want)) {
					t.Fatalf("clean run after cancel at poll %d differs from the reference", n)
				}
			}
		})
	}
}

// heapAllocated is the process's cumulative allocated bytes.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestWorkspaceFollowsPromotion runs one ShardedSession before and after a
// compaction promotes a new serving tail: the promoted tail is served in the
// lane's workspace — results stay exact — and once warm again a run
// allocates nothing the size of a key space (only its results).
func TestWorkspaceFollowsPromotion(t *testing.T) {
	// A vocabulary much wider than any document, so a key-space-sized
	// allocation would dwarf a run's results.
	files, d, _ := corpus(t, 76, 12, 60, 6000)
	const base = 6
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	se := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	ss := se.NewSession()
	ops := analytics.Ops()
	check := func(label string, n int) {
		t.Helper()
		got, err := ss.RunOps(ops)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := refResults(t, d, files[:n], tvK(ops))
		for i, op := range ops {
			if !reflect.DeepEqual(analytics.MapResult(op, got[i]), want[i]) {
				t.Errorf("%s: op %s differs from a rebuild of %d documents", label, op.Name(), n)
			}
		}
	}
	check("before append", base)
	if err := se.Append(appendDocs(files, base, len(files)-base), uint32(d.Len()), nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	check("with a delta", len(files))
	if err := se.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	cut := se.Shard(0).ingest.pin()
	defer cut.release()
	if cut.tail == se.Shard(0) || cut.delta != nil {
		t.Fatal("the compaction did not promote a tail that serves every document")
	}
	ss.ws[0].held.Store(0)
	check("after promotion", len(files))
	if ss.ws[0].Bytes() == 0 {
		t.Fatal("the promoted tail was not served in the lane's workspace")
	}
	check("second run on the promoted tail", len(files))

	keySpace := uint64(cut.tail.numWords) * 8 // one dense value array
	const runs = 5
	a0 := heapAllocated()
	for i := 0; i < runs; i++ {
		if _, err := ss.RunOps([]analytics.Op{analytics.TermVectorsOp{K: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if perRun := (heapAllocated() - a0) / runs; perRun >= keySpace {
		t.Errorf("a warm run on the promoted tail allocated %d bytes, a key space (%d words) is %d",
			perRun, cut.tail.numWords, keySpace)
	}
}

// TestTwoSessionsOneEngine runs two sharded sessions over one engine set at
// once, each through its own workspaces, alternating batches so that every
// scratch form is in use on both sides.  Run it under -race -count=10 (make
// race does): the workspaces are the only mutable traversal state, and they
// must be private.  Both sessions open with the fused batch on engines no one
// has queried yet, so their first queries race to build each shard's lazily
// ranked sequence order (Engine.seqOrder).
func TestTwoSessionsOneEngine(t *testing.T) {
	files, d, g := corpus(t, 77, 8, 150, 30)
	for _, strat := range []Strategy{TopDown, BottomUp} {
		opts := Options{Sequences: true, Strategy: strat}
		se := shardSet(t, files, d, 2, opts)
		want, err := newRefSession(newEngine(t, g, d, opts)).RunOps(analytics.Ops())
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		batches, _ := opBatches()
		batches = append(batches[len(batches)-1:], batches...)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ss := se.NewSession()
				for round := 0; round < 3; round++ {
					for bi := range batches {
						ops := batches[0]
						if round+bi > 0 {
							ops = batches[(bi+w*3)%len(batches)]
						}
						got, err := ss.RunOps(ops)
						if err != nil {
							t.Errorf("session %d: %v", w, err)
							return
						}
						for i, op := range ops {
							if !reflect.DeepEqual(analytics.MapResult(op, got[i]), analytics.MapResult(op, want[op.Task()])) {
								t.Errorf("session %d (%s): op %s differs from the reference", w, strat, op.Name())
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// fusedAllocCeiling is the most heap allocations one fused six-op batch may
// make on a warmed two-shard session over the corpus below.  Measured: 776
// (the results themselves — six per lane, six merged — their maps' buckets,
// and the scatter-gather's bookkeeping); the map-based session made 5,254 on
// the same corpus, so the ceiling sits more than five times below it.  A
// change that pushes a warm run past the ceiling has put per-rule or per-file
// allocation back on the traversal path.
const fusedAllocCeiling = 1000

func TestFusedBatchAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	files, d, _ := corpus(t, 78, 12, 400, 120)
	se := shardSet(t, files, d, 2, Options{Sequences: true})
	ss := se.NewSession()
	ops := analytics.Ops()
	if _, err := ss.RunOps(ops); err != nil { // warm the workspaces
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ss.RunOps(ops); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fused batch on a warmed session: %.0f allocations", allocs)
	if allocs > fusedAllocCeiling {
		t.Errorf("fused batch on a warmed session made %.0f allocations, ceiling %d", allocs, fusedAllocCeiling)
	}
}
