package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Crash-injection tests: interrupt persistence at adversarial points using
// the device fail point and raw crashes, then verify the §IV-E recovery
// contract.

func TestCrashDuringInitRequiresReload(t *testing.T) {
	// A crash before the initialization checkpoint leaves no usable pool.
	_, d, g := corpus(t, 50, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	// Forge a pre-checkpoint state: reset the phase by crashing a device
	// whose pool was never checkpointed.  Build a raw device with a pool
	// but no phases.
	dev := nvm.New(nvm.KindNVM, e.dev.Size())
	defer dev.Discard()
	p, err := pmemCreate(dev)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_ = p
	if _, _, err := Reopen(dev, d, Options{}); !errors.Is(err, ErrNeedsReload) {
		t.Errorf("Reopen on phase-0 pool: %v", err)
	}
}

// TestReopenRefusesUnsealedRootSlot changes a root slot on the durable image
// without resealing the header.  The header CRC covers the root slots, so
// recovery asks for a rebuild instead of trusting the slot: here the
// distinct-word count, a scalar no region check could doubt.
func TestReopenRefusesUnsealedRootSlot(t *testing.T) {
	_, d, g := corpus(t, 50, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	if err := e.pool.SetRoot(rootDistinct, e.distinctWords+1); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Flush(0, pmem.HeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatal(err)
	}
	_, _, err := Reopen(e.dev, d, Options{})
	if !errors.Is(err, ErrNeedsReload) || !strings.Contains(fmt.Sprint(err), pmem.ErrCorrupt.Error()) {
		t.Errorf("Reopen with an unsealed root slot: %v, want ErrNeedsReload for a corrupt header", err)
	}
}

func TestFlushFailureDuringCheckpointSurfaces(t *testing.T) {
	files, d, g := corpus(t, 51, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	// The traversal's first persistence event is its checkpoint's flush.
	e.dev.FailFromPersistEvent(e.dev.PersistEvents())
	if _, err := analytics.WordCount(e); err == nil {
		t.Fatal("expected checkpoint flush failure to surface")
	}
	e.dev.DisarmFailPoints()
	// The engine remains usable once the device recovers.
	wc, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("word count mismatch after transient failure")
	}
}

func TestOpLevelFlushFailureSurfaces(t *testing.T) {
	_, d, g := corpus(t, 52, 2, 150, 25)
	e := newEngine(t, g, d, Options{Persistence: OpLevel})
	// Events +0 to +5 are three op-log commits, each a flush and a drain;
	// event +6 is the fourth flush.
	e.dev.FailFromPersistEvent(e.dev.PersistEvents() + 6)
	if _, err := analytics.WordCount(e); err == nil {
		t.Fatal("expected op-log flush failure to surface")
	}
	e.dev.DisarmFailPoints()
	if _, err := analytics.WordCount(e); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	files, d, g := corpus(t, 53, 3, 120, 20)
	e := newEngine(t, g, d, Options{Sequences: true})
	want := analytics.RefWordCount(files)

	dev := e.dev
	for round := 0; round < 3; round++ {
		re, _, err := Reopen(dev, d, Options{Sequences: true})
		if err != nil {
			t.Fatalf("round %d: Reopen: %v", round, err)
		}
		wc, err := analytics.WordCount(re)
		if err != nil {
			t.Fatalf("round %d: WordCount: %v", round, err)
		}
		if !reflect.DeepEqual(wc, want) {
			t.Fatalf("round %d: mismatch", round)
		}
		if err := dev.Crash(); err != nil {
			t.Fatalf("round %d: Crash: %v", round, err)
		}
	}
}

func TestOpLevelCrashMidLogCompaction(t *testing.T) {
	// A tiny log forces many compactions; crash between them and verify
	// replay equals the durable prefix semantics (counts from compacted
	// tables plus the tail log, applied to a consistent state).
	files, d, g := corpus(t, 54, 2, 250, 25)
	opts := Options{Persistence: OpLevel, OpLogCap: 128}
	e := newEngine(t, g, d, opts)

	e.beginTraversal()
	counter, off, err := e.newCounter(e.globalBound(), int64(e.numWords))
	if err != nil {
		t.Fatalf("newCounter: %v", err)
	}
	if err := e.topDownGlobal(counter, off); err != nil {
		t.Fatalf("topDownGlobal: %v", err)
	}
	if n := e.PersistCounts().Compactions; n < 2 {
		t.Fatalf("log compacted %d times, want at least 2: the test no longer covers compaction", n)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	counts, err := re.ReplayedCounts()
	if err != nil {
		t.Fatalf("ReplayedCounts: %v", err)
	}
	// The traversal completed every mutation before the crash (the final
	// commit fence ran inside topDownGlobal's last opCommit), so replayed
	// state must equal the full reference.
	if !reflect.DeepEqual(counts, analytics.RefWordCount(files)) {
		t.Errorf("replayed counts diverge (replayed %d records)", info.Replayed)
	}
}

func TestSeqLocalTablesSurviveCrash(t *testing.T) {
	files, d, g := corpus(t, 55, 3, 200, 15)
	e := newEngine(t, g, d, Options{Sequences: true})
	want, err := analytics.SequenceCount(e)
	if err != nil {
		t.Fatalf("SequenceCount: %v", err)
	}
	if !reflect.DeepEqual(want, analytics.RefSequenceCount(files)) {
		t.Fatal("pre-crash sequence counts wrong")
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := Reopen(e.dev, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	got, err := analytics.RankedInvertedIndex(re)
	if err != nil {
		t.Fatalf("recovered RankedInvertedIndex: %v", err)
	}
	if !reflect.DeepEqual(got, analytics.RefRankedInvertedIndex(files)) {
		t.Error("recovered ranked inverted index mismatch")
	}
}

func TestPerOpCommitMatchesReference(t *testing.T) {
	files, d, g := corpus(t, 56, 2, 150, 20)
	e := newEngine(t, g, d, Options{Persistence: OpLevel, PerOpCommit: true})
	wc, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("per-op-commit word count mismatch")
	}
}

func TestPerOpCommitCostsMore(t *testing.T) {
	_, d, g := corpus(t, 57, 2, 200, 20)
	perRule := newEngine(t, g, d, Options{Persistence: OpLevel})
	if _, err := analytics.WordCount(perRule); err != nil {
		t.Fatal(err)
	}
	perOp := newEngine(t, g, d, Options{Persistence: OpLevel, PerOpCommit: true})
	if _, err := analytics.WordCount(perOp); err != nil {
		t.Fatal(err)
	}
	a := perRule.LastTraversalSpan().Total()
	b := perOp.LastTraversalSpan().Total()
	if b <= a {
		t.Errorf("per-mutation commits (%v) not costlier than per-rule (%v)", b, a)
	}
}

// pmemCreate builds a bare pool on dev (no engine phases), for recovery
// tests that need a pre-initialization state.
func pmemCreate(dev *nvm.SimDevice) (interface{}, error) {
	p, err := pmem.Create(dev, pmem.Options{LogCap: 4096})
	return p, err
}

func TestNaivePortCostsMoreThanNTADOC(t *testing.T) {
	// The §III-B ordering: naive PMDK port >> N-TADOC on the same medium.
	_, d, g := corpus(t, 58, 2, 300, 25)
	tuned := newEngine(t, g, d, Options{})
	if _, err := analytics.WordCount(tuned); err != nil {
		t.Fatal(err)
	}
	naive := newEngine(t, g, d, Options{
		NoPruning: true, NoBounds: true, Scatter: true,
		Persistence: OpLevel, PerOpCommit: true,
	})
	if _, err := analytics.WordCount(naive); err != nil {
		t.Fatal(err)
	}
	a := tuned.InitSpan().Total() + tuned.LastTraversalSpan().Total()
	b := naive.InitSpan().Total() + naive.LastTraversalSpan().Total()
	if b < 2*a {
		t.Errorf("naive port (%v) not clearly costlier than N-TADOC (%v)", b, a)
	}
}

func TestPoolEstimateCoversActualUse(t *testing.T) {
	for _, seq := range []bool{false, true} {
		_, d, g := corpus(t, 59, 4, 300, 40)
		opts := Options{Sequences: seq}
		est, err := PoolEstimate(g, opts)
		if err != nil {
			t.Fatalf("PoolEstimate: %v", err)
		}
		e := newEngine(t, g, d, opts)
		// Run the heaviest tasks; the pool must never run out.
		if _, err := analytics.TermVectors(e, 5); err != nil {
			t.Fatalf("seq=%v TermVector: %v", seq, err)
		}
		if seq {
			if _, err := analytics.RankedInvertedIndex(e); err != nil {
				t.Fatalf("RankedInvertedIndex: %v", err)
			}
		}
		if e.NVMBytes() > est+est/2 {
			t.Errorf("seq=%v: used %d exceeds estimate %d + slack", seq, e.NVMBytes(), est)
		}
	}
}

func TestNoDoubleReplayAfterCommittedTraversal(t *testing.T) {
	// Regression: a completed traversal checkpoints its tables durably and
	// advances the pool epoch; the op log's records are then superseded.
	// Recovery must NOT replay them on top of the checkpointed tables
	// (which would double every count).
	files, d, g := corpus(t, 62, 2, 200, 25)
	opts := Options{Persistence: OpLevel}
	e := newEngine(t, g, d, opts)
	want, err := analytics.WordCount(e) // completes, checkpoints
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, analytics.RefWordCount(files)) {
		t.Fatal("pre-crash counts wrong")
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Replayed != 0 {
		t.Errorf("replayed %d superseded records", info.Replayed)
	}
	counts, task, ok := re.CommittedCounts()
	if !ok || task != analytics.TaskWordCount {
		t.Fatalf("committed counts missing (ok=%v task=%v)", ok, task)
	}
	if !reflect.DeepEqual(counts, want) {
		t.Error("recovered counts diverge from committed run")
	}
}

// TestTraversalCheckpointLeavesInitRegionAlone: the traversal checkpoint
// covers the traversal's own tables.  The walk scribbles rule weights and
// remaining-parent counts into the metadata the init checkpoint made durable
// — scratch, re-initialized by every traversal — and none of that is flushed
// again: after a completed traversal and a crash, the pool recovers to phase
// 2 with the exact committed counts while the init region's durable bytes
// are still the init checkpoint's (outside the operation log, which flushes
// itself).
func TestTraversalCheckpointLeavesInitRegionAlone(t *testing.T) {
	files, d, g := corpus(t, 65, 3, 250, 30)
	want := analytics.RefWordCount(files)
	for _, p := range []Persistence{PhaseLevel, OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			opts := Options{Persistence: p}
			e := newEngine(t, g, d, opts)
			durable := func() []byte {
				img := make([]byte, e.dev.Size())
				if err := e.dev.ReadDurable(img); err != nil {
					t.Fatalf("ReadDurable: %v", err)
				}
				return img
			}
			// The init region outside what persists itself: from the end of
			// the pool's reserved header + redo log to the init watermark,
			// less the operation log.
			lo, hi := int64(pmem.HeaderSize)+e.opts.OpLogCap, e.initTop
			logLo, logHi := hi, hi
			if e.oplog != nil {
				logLo = e.oplog.acc.Base()
				logHi = logLo + e.oplog.acc.Size()
			}
			initRegion := func(img []byte) []byte {
				return append(slices.Clone(img[lo:logLo]), img[logHi:hi]...)
			}
			before := initRegion(durable())
			flushedBefore := e.dev.Stats().FlushedBytes

			if _, err := analytics.WordCount(e); err != nil {
				t.Fatalf("WordCount: %v", err)
			}
			volatile := make([]byte, e.dev.Size())
			if _, err := e.dev.ReadAt(volatile, 0); err != nil {
				t.Fatalf("ReadAt: %v", err)
			}
			if bytes.Equal(initRegion(volatile), before) {
				t.Fatal("the traversal wrote nothing into the init region: the test no longer shows scratch left unflushed")
			}
			if flushed := e.dev.Stats().FlushedBytes - flushedBefore; flushed >= hi-lo {
				t.Errorf("traversal flushed %d bytes, the init region alone is %d", flushed, hi-lo)
			}

			if err := e.dev.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			if !bytes.Equal(initRegion(durable()), before) {
				t.Error("the traversal changed the init region's durable image")
			}
			re, info, err := Reopen(e.dev, d, opts)
			if err != nil {
				t.Fatalf("Reopen: %v", err)
			}
			if info.Phase != phaseTraversal || info.Replayed != 0 {
				t.Fatalf("recovered to phase %d with %d frames replayed, want phase %d and none", info.Phase, info.Replayed, phaseTraversal)
			}
			counts, task, ok := re.CommittedCounts()
			if !ok || task != analytics.TaskWordCount || !reflect.DeepEqual(counts, want) {
				t.Errorf("committed counts after recovery (ok=%v, task=%v) differ from the reference", ok, task)
			}
			// And the next traversal, which re-initializes the scratch it
			// finds, is exact.
			if wc, err := analytics.WordCount(re); err != nil || !reflect.DeepEqual(wc, want) {
				t.Errorf("re-run after recovery: err %v, exact %v", err, reflect.DeepEqual(wc, want))
			}
		})
	}
}
