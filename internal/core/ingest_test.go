package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// refResults computes the six reference results over raw token streams, in
// analytics.Ops() order.
func refResults(t *testing.T, d *dict.Dictionary, files [][]uint32, k int) []any {
	t.Helper()
	want := make([]any, 0, 6)
	for _, op := range analytics.Ops() {
		switch op.(type) {
		case analytics.WordCountOp:
			want = append(want, analytics.RefWordCount(files))
		case analytics.SortOp:
			want = append(want, analytics.RefSort(files, d))
		case analytics.TermVectorsOp:
			want = append(want, analytics.RefTermVector(files, k))
		case analytics.InvertedIndexOp:
			want = append(want, analytics.RefInvertedIndex(files))
		case analytics.SequenceCountOp:
			want = append(want, analytics.RefSequenceCount(files))
		case analytics.RankedInvertedIndexOp:
			want = append(want, analytics.RefRankedInvertedIndex(files))
		default:
			t.Fatalf("unhandled op %s", op.Name())
		}
	}
	return want
}

// newOneShard builds the one-shard set over g — the shape an unsharded
// corpus executes as.
func newOneShard(t testing.TB, g *cfg.Grammar, d *dict.Dictionary, opts Options) *ShardedEngine {
	t.Helper()
	se, err := NewSharded([]*cfg.Grammar{g}, d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })
	return se
}

// crashAndReopen crashes the one-shard set's device and recovers a set from it.
func crashAndReopen(t *testing.T, se *ShardedEngine, d *dict.Dictionary, opts Options) *ShardedEngine {
	t.Helper()
	dev := se.Shard(0).Device()
	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := ReopenSharded([]*nvm.SimDevice{dev}, d, opts)
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	return re
}

func appendDocs(files [][]uint32, base int, n int) []AppendDoc {
	docs := make([]AppendDoc, 0, n)
	for i := base; i < base+n && i < len(files); i++ {
		docs = append(docs, AppendDoc{Name: fmt.Sprintf("appended%d", i), Tokens: files[i]})
	}
	return docs
}

// checkOps runs the executor's batch and compares each result to the
// reference over the given visible token streams.
func checkOps(t *testing.T, ex analytics.Executor, d *dict.Dictionary, files [][]uint32, label string) {
	t.Helper()
	ops := analytics.Ops()
	got, err := ex.RunOps(ops)
	if err != nil {
		t.Fatalf("%s: RunOps: %v", label, err)
	}
	want := refResults(t, d, files, tvK(ops))
	for i, op := range ops {
		if !reflect.DeepEqual(analytics.MapResult(op, got[i]), want[i]) {
			t.Errorf("%s: op %s differs from reference", label, op.Name())
		}
	}
}

func tvK(ops []analytics.Op) int {
	for _, op := range ops {
		if tv, ok := op.(analytics.TermVectorsOp); ok {
			return tv.K
		}
	}
	return 0
}

// TestAppendBitIdentity: after every append batch (and after a compaction in
// the middle), all six ops — fused in one batch — must be bit-identical to
// the reference over the visible token streams.
func TestAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 71, 10, 200, 30)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	checkOps(t, e, d, files[:base], "pre-append")

	vocab := uint32(d.Len())
	visible := base
	batchSizes := []int{1, 2, 1, 2}
	for bi, n := range batchSizes {
		if err := e.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
			t.Fatalf("Append batch %d: %v", bi, err)
		}
		visible += n
		checkOps(t, e, d, files[:visible], fmt.Sprintf("after batch %d", bi))
		// Sessions opened after the append observe it too.
		checkOps(t, e.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
		if bi == 1 {
			if err := e.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			checkOps(t, e, d, files[:visible], "after compaction")
		}
	}
	if visible != len(files) {
		t.Fatalf("test consumed %d of %d files", visible, len(files))
	}
	st := e.IngestStats()
	if st.Batches != uint64(len(batchSizes)) || st.Docs != uint64(len(files)-base) {
		t.Errorf("stats report %d batches / %d docs, want %d / %d",
			st.Batches, st.Docs, len(batchSizes), len(files)-base)
	}
	if st.Compactions != 1 || st.CompactedDocs == 0 {
		t.Errorf("stats report %d compactions over %d docs, want 1 over >0",
			st.Compactions, st.CompactedDocs)
	}
	if got := e.CorpusEpoch(); got != uint64(len(batchSizes))+1 {
		t.Errorf("corpus epoch %d, want %d (batches + compactions)", got, len(batchSizes)+1)
	}
}

// TestAppendNovelWords: appended documents may extend the shared dictionary;
// results and recovery must account for the grown vocabulary.
func TestAppendNovelWords(t *testing.T) {
	files, d, _ := corpus(t, 72, 4, 150, 25)
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})

	novel := []string{"xenon", "ytterbium"}
	ids := make([]uint32, len(novel))
	for i, w := range novel {
		ids[i] = d.Intern(w)
	}
	doc := []uint32{ids[0], ids[1], ids[0], files[0][0], files[0][1]}
	if err := e.Append([]AppendDoc{{Name: "novel", Tokens: doc}}, uint32(d.Len()), novel); err != nil {
		t.Fatalf("Append: %v", err)
	}
	all := append(append([][]uint32{}, files...), doc)
	checkOps(t, e, d, all, "after novel append")

	// Recovery must re-intern the novel words in order.
	d2 := rebuildDict(t, d, len(d.Words())-len(novel))
	re := crashAndReopen(t, e, d2, Options{Sequences: true, IngestCap: 1 << 20})
	defer re.Close()
	for i, w := range novel {
		id, ok := d2.Lookup(w)
		if !ok || id != ids[i] {
			t.Errorf("recovered dictionary maps %q to (%d, %v), want (%d, true)", w, id, ok, ids[i])
		}
	}
	checkOps(t, re, d2, all, "recovered")
}

// rebuildDict reconstructs the pre-append dictionary: the first n words of d
// in ID order, as a caller reopening from persisted inputs would hold.
func rebuildDict(t *testing.T, d *dict.Dictionary, n int) *dict.Dictionary {
	t.Helper()
	nd := dict.New()
	for _, w := range d.Words()[:n] {
		nd.Intern(w)
	}
	return nd
}

// TestAppendValidation covers the append error contract.
func TestAppendValidation(t *testing.T) {
	files, d, g := corpus(t, 73, 3, 100, 20)
	plain := newOneShard(t, g, d, Options{})
	if err := plain.Append(appendDocs(files, 0, 1), uint32(d.Len()), nil); !errors.Is(err, ErrNoIngest) {
		t.Errorf("append without ingestion: err = %v, want ErrNoIngest", err)
	}
	if _, err := plain.RunOps(analytics.Ops()[:1]); err != nil {
		t.Errorf("plain engine query after ErrNoIngest: %v", err)
	}

	e := newOneShard(t, g, d, Options{IngestCap: 256})
	if err := e.Append(appendDocs(files, 0, 1), uint32(d.Len())-1, nil); err == nil {
		t.Error("shrinking vocabulary accepted")
	}
	if err := e.Append([]AppendDoc{{Name: "bad", Tokens: []uint32{uint32(d.Len()) + 7}}},
		uint32(d.Len()), nil); err == nil {
		t.Error("out-of-vocabulary token accepted")
	}
	// A tiny log fills after a batch or two.
	var full bool
	for i := 0; i < 16; i++ {
		if err := e.Append(appendDocs(files, i%len(files), 1), uint32(d.Len()), nil); err != nil {
			if !errors.Is(err, ErrIngestFull) {
				t.Fatalf("append %d: err = %v, want ErrIngestFull", i, err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Error("256-byte log never filled")
	}
}

// TestIngestRecovery: committed appends survive crash and reopen — batches,
// epoch, and all six results.
func TestIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 74, 8, 180, 30)
	const base = 5
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := e.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	re := crashAndReopen(t, e, d, Options{Sequences: true, IngestCap: 1 << 20})
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	if got := len(re.Shard(0).IngestBatches()); got != len(files)-base {
		t.Errorf("recovered %d batches, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered")

	// Appending continues after recovery.
	if err := re.Append([]AppendDoc{{Name: "post", Tokens: files[0]}}, vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestShardedAppendBitIdentity: the sharded coordinator routes appends to
// shards while numbering documents globally; results must stay bit-identical
// to the unsharded reference at every K, including after per-shard
// compactions.
func TestShardedAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 75, 10, 180, 30)
	const base = 6
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), k)
			if err != nil {
				t.Fatalf("InferShards: %v", err)
			}
			se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			t.Cleanup(func() { se.Close() })
			vocab := uint32(d.Len())
			visible := base
			for bi, n := range []int{1, 2, 1} {
				if err := se.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
					t.Fatalf("Append batch %d: %v", bi, err)
				}
				visible += n
				checkOps(t, se, d, files[:visible], fmt.Sprintf("after batch %d", bi))
				checkOps(t, se.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
			}
			// Force-compact every shard with a delta and re-verify.
			if _, err := se.CompactIfNeeded(CompactionPolicy{MaxDeltaDocs: -1, MaxDeltaBytes: -1}); err != nil {
				t.Fatalf("CompactIfNeeded: %v", err)
			}
			checkOps(t, se, d, files[:visible], "after compaction")
			// And appends keep landing after compaction.
			if err := se.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
				t.Fatalf("post-compaction Append: %v", err)
			}
			checkOps(t, se, d, append(append([][]uint32{}, files[:visible]...), files[0]), "post-compaction append")
		})
	}
}

// TestShardedIngestRecovery: a sharded reopen reassembles the global append
// order from the per-shard logs.
func TestShardedIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 76, 9, 150, 25)
	const base = 5
	gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	// Runs after the recovered engine's Close: the devices are discarded by
	// then, and this releases the delta engines the first life built.
	defer se.Close()
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	devs := make([]*nvm.SimDevice, se.NumShards())
	for i := range devs {
		devs[i] = se.Shard(i).Device()
		if err := devs[i].Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	re, _, err := ReopenSharded(devs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered sharded")
	if err := re.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestAppendConcurrentQueries: appends never block queries, and every query
// observes a consistent cut — exactly the first N documents for some N
// between the committed count when it started and when it finished.  Run
// under -race this is the ingestion concurrency test.
func TestAppendConcurrentQueries(t *testing.T) { concurrentIngest(t, 1, false) }

// TestCompactConcurrentQueries is the same oracle with a compaction loop
// beside the appender and the readers, on two shards: every cut a query
// observes, before or after any swap, is exactly a document prefix.  It also
// holds one cut pinned across two compactions and leaves one session idle
// across them — the engines a pin names must stay mapped however many cuts
// replace it (a use-after-discard is a fault on an unmapped image, not a
// wrong answer), and a session whose tail was discarded meanwhile must
// reopen on the pinned one without touching the old.
func TestCompactConcurrentQueries(t *testing.T) { concurrentIngest(t, 2, true) }

// compactionCount is how many compactions the test's compaction loop has
// published, for goroutines that wait for the next one.
type compactionCount struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    uint64
	off  bool // the loop has stopped: nothing more will be published
}

func (c *compactionCount) set(n uint64, off bool) {
	c.mu.Lock()
	c.n, c.off = n, c.off || off
	c.mu.Unlock()
	c.cond.Broadcast()
}

// await blocks until n compactions have been published (true) or the loop
// has stopped short of that (false).
func (c *compactionCount) await(n uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.n < n && !c.off {
		c.cond.Wait()
	}
	return c.n >= n
}

// pinnedDocs lists the global documents a pinned engine holds, in its own
// document order: the explicit map, or numFiles documents from base.
func pinnedDocs(files [][]uint32, docMap []uint32, base, numFiles uint32) [][]uint32 {
	var docs [][]uint32
	if docMap == nil {
		return files[base : base+numFiles]
	}
	for _, g := range docMap {
		docs = append(docs, files[g])
	}
	return docs
}

func concurrentIngest(t *testing.T, k int, compact bool) {
	files, d, _ := corpus(t, 77, 24, 120, 25)
	const base = 4
	gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), k)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	e, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	vocab := uint32(d.Len())

	refs := make(map[int][]any, len(files)-base+1)
	ops := analytics.Ops()
	for n := base; n <= len(files); n++ {
		refs[n] = refResults(t, d, files[:n], tvK(ops))
	}
	// observe runs the batch and holds it to the reference for the document
	// count it saw.
	observe := func(ex analytics.Executor) error {
		got, err := ex.RunOps(ops)
		if err != nil {
			return err
		}
		tv, ok := got[2].([][]analytics.WordFreq)
		if !ok {
			return fmt.Errorf("op 2 returned %T, want term vectors", got[2])
		}
		want, ok := refs[len(tv)]
		if !ok {
			return fmt.Errorf("query observed %d documents, outside [%d, %d]", len(tv), base, len(files))
		}
		for i, op := range ops {
			if !reflect.DeepEqual(analytics.MapResult(op, got[i]), want[i]) {
				return fmt.Errorf("op %s inconsistent with the %d-document cut", op.Name(), len(tv))
			}
		}
		return nil
	}

	compactions := &compactionCount{}
	compactions.cond = sync.NewCond(&compactions.mu)
	appended := make(chan struct{}) // closed once the appender is through
	pinned := make(chan struct{})   // closed once the holder has its pin
	if !compact {
		compactions.set(0, true)
		close(pinned)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Appender: one document a batch.  Beside a compaction loop it retries
	// the appends a merge refuses, lets every other append race the loop
	// freely and waits out a compaction after the rest, so the run has at
	// least (len(files)-base)/2 swaps whatever the scheduler does; it stops
	// after four documents until the holder has pinned its cut.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appended)
		for i := base; i < len(files); i++ {
			if i == base+4 {
				<-pinned
			}
			before := e.IngestStats().Compactions
			for {
				err := e.Append(appendDocs(files, i, 1), vocab, nil)
				if err == nil {
					break
				}
				if !compact || !errors.Is(err, ErrCompacting) {
					fail("Append %d: %v", i, err)
					return
				}
				runtime.Gosched()
			}
			if (i-base)%2 == 1 {
				compactions.await(before + 1)
			}
		}
	}()
	if compact {
		// Compaction loop: fold whatever delta there is, until the appender
		// is through.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := e.Compact(); err != nil {
					fail("Compact: %v", err)
				}
				select {
				case <-appended:
					compactions.set(e.IngestStats().Compactions, true)
					return
				default:
					compactions.set(e.IngestStats().Compactions, false)
					runtime.Gosched()
				}
			}
		}()
		// Holder: once a compacted tail serves, pin every shard's cut and
		// run a session over it, sit out two more compactions, then read
		// every pinned engine and wake the idle session.
		wg.Add(1)
		go func() {
			defer wg.Done()
			compactions.await(1)
			idle := e.NewSession()
			if err := observe(idle); err != nil {
				fail("idle session, first run: %v", err)
			}
			pins := e.pinIngest()
			defer pins.release()
			c0 := e.IngestStats().Compactions
			close(pinned)
			if !compactions.await(c0 + 2) {
				fail("the compaction loop stopped %d compactions after the pin, want 2", e.IngestStats().Compactions-c0)
				return
			}
			for i, pin := range pins.pins {
				sh := e.Shard(i)
				type pinnedEngine struct {
					eng  *Engine
					docs [][]uint32
				}
				units := []pinnedEngine{{pin.tail, pinnedDocs(files, pin.baseMap, e.bases[i], sh.numFiles)}}
				if pin.delta != nil {
					units = append(units, pinnedEngine{pin.delta, pinnedDocs(files, pin.deltaMap, 0, 0)})
				}
				for _, u := range units {
					got, err := u.eng.NewSession().RunOps(ops)
					if err != nil {
						fail("pinned shard %d: %v", i, err)
						continue
					}
					want := refResults(t, d, u.docs, tvK(ops))
					for j, op := range ops {
						if !reflect.DeepEqual(analytics.MapResult(op, got[j]), want[j]) {
							fail("pinned shard %d: op %s differs from its %d documents two compactions on", i, op.Name(), len(u.docs))
						}
					}
				}
			}
			if err := observe(idle); err != nil {
				fail("idle session, two compactions on: %v", err)
			}
		}()
	}
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession()
			for iter := 0; ; iter++ {
				if err := observe(s); err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				select {
				case <-appended:
					if iter >= 8 {
						return
					}
				default:
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkOps(t, e, d, files, "after concurrent phase")
	if st := e.IngestStats(); compact && st.Compactions < uint64(len(files)-base)/2 {
		t.Errorf("%d compactions ran beside the readers, want at least %d", st.Compactions, (len(files)-base)/2)
	}
}

// TestCompactorWorker: the background worker compacts once the delta crosses
// the policy thresholds, and results stay correct throughout.
func TestCompactorWorker(t *testing.T) {
	files, d, _ := corpus(t, 78, 10, 100, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	c := StartCompactor(e, CompactionPolicy{MaxDeltaDocs: 2, Interval: time.Millisecond})
	defer c.Stop()
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		// The worker may hold the compaction lock; retry rejected appends.
		for {
			err := e.Append(appendDocs(files, i, 1), vocab, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrCompacting) {
				t.Fatalf("Append %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runs, err := c.Runs(); runs > 0 {
			if err != nil {
				t.Fatalf("compactor error after %d runs: %v", runs, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compactor never ran")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	checkOps(t, e, d, files, "after background compaction")
	if st := e.IngestStats(); st.Compactions == 0 {
		t.Error("stats report no compactions")
	}
}

// TestCompactionBoundsServingEngines: a compaction replaces the shard's tail,
// it does not add one.  With no query in flight, every append-then-compact
// round leaves each shard holding its own engine and at most one tail and no
// delta, and the device images mapped after twelve rounds are within one
// tail's of what they were after two — not ten tails more.
func TestCompactionBoundsServingEngines(t *testing.T) {
	files, d, _ := corpus(t, 79, 16, 150, 30)
	const base, rounds = 4, 12
	for k := 1; k <= 2; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gs, err := sequitur.InferShards(files[:base], uint32(d.Len()), k)
			if err != nil {
				t.Fatalf("InferShards: %v", err)
			}
			se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			t.Cleanup(func() { se.Close() })
			var afterTwo int64
			for r := 1; r <= rounds; r++ {
				if err := se.Append(appendDocs(files, base+r-1, 1), uint32(d.Len()), nil); err != nil {
					t.Fatalf("round %d: Append: %v", r, err)
				}
				for i := 0; i < k; i++ {
					if n := se.Shard(i).IngestStats().ServingEngines; n > 3 {
						t.Errorf("round %d: shard %d keeps %d engines with a delta, want at most 3", r, i, n)
					}
				}
				if err := se.Compact(); err != nil {
					t.Fatalf("round %d: Compact: %v", r, err)
				}
				for i := 0; i < k; i++ {
					st := se.Shard(i).IngestStats()
					want := 1 // its own engine
					if st.Compactions > 0 {
						want = 2 // and the one tail that replaced its DAG
					}
					if st.ServingEngines != want || st.DeltaDocs != 0 {
						t.Errorf("round %d: shard %d keeps %d engines and %d delta documents after %d compactions, want %d and 0",
							r, i, st.ServingEngines, st.DeltaDocs, st.Compactions, want)
					}
				}
				if r == 2 {
					afterTwo = nvm.MappedBytes()
				}
			}
			if got := se.IngestStats().Compactions; got != rounds {
				t.Fatalf("%d compactions in %d rounds", got, rounds)
			}
			var tail int64 // the largest tail's two images
			for i := 0; i < k; i++ {
				tail = max(tail, 2*se.Shard(i).ingest.current().tail.Device().Size())
			}
			if grew := nvm.MappedBytes() - afterTwo; grew > tail {
				t.Errorf("mapped images grew %d bytes over ten compactions; one tail maps %d", grew, tail)
			}
			checkOps(t, se, d, files[:base+rounds], "after the rounds")
		})
	}
}

// TestCloseUnderPinnedCut: Close gives up the set's own references and
// nothing more.  The tail and delta engines of a cut that is still pinned
// stay mapped and readable past Close, and go — every byte — with the pin.
func TestCloseUnderPinnedCut(t *testing.T) {
	files, d, _ := corpus(t, 80, 8, 150, 30)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	before := nvm.MappedBytes()
	se, err := NewSharded([]*cfg.Grammar{g}, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if err := se.Append(appendDocs(files, base, 2), uint32(d.Len()), nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := se.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := se.Append(appendDocs(files, base+2, 2), uint32(d.Len()), nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	cut := se.Shard(0).ingest.pin()
	if cut.tail == se.Shard(0) || cut.delta == nil {
		t.Fatalf("pinned cut {tail is the shard engine: %v, delta: %v}, want a compacted tail and a delta",
			cut.tail == se.Shard(0), cut.delta != nil)
	}
	pinnedBytes := 2 * (cut.tail.Device().Size() + cut.delta.Device().Size())
	if err := se.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := nvm.MappedBytes() - before; got != pinnedBytes {
		t.Errorf("%d bytes of images mapped after Close under a pin, want the pinned tail's and delta's %d", got, pinnedBytes)
	}
	checkOps(t, cut.tail.NewSession(), d, files[:base+2], "pinned tail after Close")
	checkOps(t, cut.delta.NewSession(), d, files[base+2:base+4], "pinned delta after Close")
	cut.release()
	if got := nvm.MappedBytes() - before; got != 0 {
		t.Errorf("%d bytes of images still mapped after the last pin's release", got)
	}
}
