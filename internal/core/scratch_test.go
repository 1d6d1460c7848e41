package core

import (
	"maps"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/pmem"
	"github.com/text-analytics/ntadoc/internal/tadoc"
)

// TestPerFileCountersAreScratch: on the engine task path a per-file counter
// is traversal scratch.  The per-file pass leaves the pool watermark where it
// found it, a per-file task's checkpoint flushes nothing but the header, the
// op log stages no entry for a per-file counter, and in a fused batch the
// global result — allocated below the per-file mark — commits exactly as a
// lone run of its op does.  Every result equals the DRAM engine's.
func TestPerFileCountersAreScratch(t *testing.T) {
	files, d, g := corpus(t, 66, 4, 300, 30)
	dram, err := tadoc.New(g, d, tadoc.Auto)
	if err != nil {
		t.Fatalf("tadoc.New: %v", err)
	}
	sameAsDRAM := func(t *testing.T, ops []analytics.Op, got []any) {
		t.Helper()
		want, err := dram.RunOps(ops)
		if err != nil {
			t.Fatalf("DRAM RunOps: %v", err)
		}
		for i, op := range ops {
			if !reflect.DeepEqual(analytics.MapResult(op, got[i]), analytics.MapResult(op, want[i])) {
				t.Errorf("%s differs from the DRAM engine's", op.Name())
			}
		}
	}
	perFile := []analytics.Op{analytics.InvertedIndexOp{}}
	// The phase commit records the batch's last op: the global one goes last.
	fused := []analytics.Op{analytics.InvertedIndexOp{}, analytics.RankedInvertedIndexOp{}, analytics.WordCountOp{}}

	for _, s := range []Strategy{TopDown, BottomUp} {
		for _, p := range []Persistence{PhaseLevel, OpLevel} {
			t.Run(s.String()+"/"+p.String(), func(t *testing.T) {
				opts := Options{Strategy: s, Persistence: p, Sequences: true}

				e := newEngine(t, g, d, opts)
				top, before := e.NVMBytes(), e.PersistCounts()
				res, err := e.RunOps(perFile)
				if err != nil {
					t.Fatalf("RunOps: %v", err)
				}
				sameAsDRAM(t, perFile, res)
				if got := e.NVMBytes(); got != top {
					t.Errorf("watermark %d after the per-file task, %d before it", got, top)
				}
				header, logged := int64(pmem.HeaderSize), int64(0)
				if p == OpLevel {
					// The log's two resets, at the traversal's start and
					// commit; the commit's is inside the span.
					header += opLogHeader
					logged = 2 * opLogHeader
				}
				if flushed := e.LastTraversalSpan().Device.FlushedBytes; flushed > header {
					t.Errorf("per-file traversal flushed %d bytes, the header alone is %d", flushed, header)
				}
				after := e.PersistCounts()
				if n := after.LogBytes - before.LogBytes; n != logged {
					t.Errorf("per-file task wrote %d op-log bytes, want only the %d of its resets", n, logged)
				}
				if after.Compactions != before.Compactions {
					t.Errorf("per-file task compacted the op log %d times", after.Compactions-before.Compactions)
				}

				solo := newEngine(t, g, d, opts)
				if _, err := solo.RunOps(fused[len(fused)-1:]); err != nil {
					t.Fatalf("word count: %v", err)
				}
				f := newEngine(t, g, d, opts)
				res, err = f.RunOps(fused)
				if err != nil {
					t.Fatalf("fused RunOps: %v", err)
				}
				sameAsDRAM(t, fused, res)
				if got, want := f.NVMBytes(), solo.NVMBytes(); got != want {
					t.Errorf("fused batch left the watermark at %d, word count alone at %d", got, want)
				}
				if got, want := f.PersistCounts().LogBytes, solo.PersistCounts().LogBytes; got != want {
					t.Errorf("fused batch wrote %d op-log bytes, word count alone %d", got, want)
				}
				cc, task, ok := f.CommittedCounts()
				if !ok || task != analytics.TaskWordCount {
					t.Fatalf("fused batch committed (ok=%v task=%v), want word count", ok, task)
				}
				if !maps.Equal(cc, analytics.RefWordCount(files)) {
					t.Error("fused batch's committed word counts differ from the reference")
				}
			})
		}
	}
}
