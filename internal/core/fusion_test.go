package core

import (
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
)

// TestFusedMatchesSequentialWithFewerReads runs all six registered ops
// first sequentially (six traversals) and then as one fused batch on a
// second engine over the same corpus.  The fused results must be
// bit-identical to the sequential ones, and the fused run must touch the
// simulated device strictly less: fusion's whole point is feeding every op
// from the same body reads.
func TestFusedMatchesSequentialWithFewerReads(t *testing.T) {
	_, d, g := corpus(t, 47, 6, 400, 60)
	ops := analytics.Ops()

	seqEngine := newEngine(t, g, d, Options{Sequences: true})
	seqEngine.Device().ResetStats()
	sequential := make([]any, len(ops))
	for i, op := range ops {
		res, err := analytics.RunAs[any](seqEngine, op)
		if err != nil {
			t.Fatalf("sequential %v: %v", op.Task(), err)
		}
		sequential[i] = res
	}
	seqStats := seqEngine.Device().Stats()

	fusedEngine := newEngine(t, g, d, Options{Sequences: true})
	fusedEngine.Device().ResetStats()
	fused, err := fusedEngine.RunOps(ops)
	if err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	fusedStats := fusedEngine.Device().Stats()

	for i, op := range ops {
		if !reflect.DeepEqual(fused[i], sequential[i]) {
			t.Errorf("%v: fused result differs from sequential run", op.Task())
		}
	}
	if fusedStats.Reads >= seqStats.Reads {
		t.Errorf("fused Reads = %d, want < sequential %d", fusedStats.Reads, seqStats.Reads)
	}
	if fusedStats.BytesRead >= seqStats.BytesRead {
		t.Errorf("fused BytesRead = %d, want < sequential %d", fusedStats.BytesRead, seqStats.BytesRead)
	}
}

// TestFusedSubsetsMatchReference exercises fused batches smaller than the
// full six-op set, including word-only and sequence-only mixes, against the
// uncompressed references.
func TestFusedSubsetsMatchReference(t *testing.T) {
	files, d, g := corpus(t, 48, 4, 250, 40)
	e := newEngine(t, g, d, Options{Sequences: true})

	res, err := e.RunOps([]analytics.Op{analytics.WordCountOp{}, analytics.SortOp{}})
	if err != nil {
		t.Fatalf("RunOps(word ops): %v", err)
	}
	if !reflect.DeepEqual(analytics.MapResult(analytics.WordCountOp{}, res[0]), analytics.RefWordCount(files)) {
		t.Error("fused word count mismatch")
	}
	if !reflect.DeepEqual(res[1], analytics.RefSort(files, d)) {
		t.Error("fused sort mismatch")
	}

	res, err = e.RunOps([]analytics.Op{
		analytics.SequenceCountOp{}, analytics.RankedInvertedIndexOp{},
	})
	if err != nil {
		t.Fatalf("RunOps(seq ops): %v", err)
	}
	if !reflect.DeepEqual(analytics.MapResult(analytics.SequenceCountOp{}, res[0]), analytics.RefSequenceCount(files)) {
		t.Error("fused sequence count mismatch")
	}
	if !reflect.DeepEqual(analytics.MapResult(analytics.RankedInvertedIndexOp{}, res[1]), analytics.RefRankedInvertedIndex(files)) {
		t.Error("fused ranked inverted index mismatch")
	}

	res, err = e.RunOps([]analytics.Op{
		analytics.TermVectorsOp{K: 6}, analytics.InvertedIndexOp{}, analytics.SequenceCountOp{},
	})
	if err != nil {
		t.Fatalf("RunOps(mixed scope): %v", err)
	}
	if !reflect.DeepEqual(res[0], analytics.RefTermVector(files, 6)) {
		t.Error("fused term vectors mismatch")
	}
	if !reflect.DeepEqual(analytics.MapResult(analytics.InvertedIndexOp{}, res[1]), analytics.RefInvertedIndex(files)) {
		t.Error("fused inverted index mismatch")
	}
	if !reflect.DeepEqual(analytics.MapResult(analytics.SequenceCountOp{}, res[2]), analytics.RefSequenceCount(files)) {
		t.Error("fused sequence count mismatch")
	}
}

// TestFusedDuplicateOpsIndependent checks that one op appearing twice in a
// batch yields two equal, independent results.
func TestFusedDuplicateOpsIndependent(t *testing.T) {
	files, d, g := corpus(t, 49, 3, 200, 30)
	e := newEngine(t, g, d, Options{Sequences: false})
	res, err := e.RunOps([]analytics.Op{analytics.WordCountOp{}, analytics.WordCountOp{}})
	if err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	want := analytics.RefWordCount(files)
	for i := range res {
		if !reflect.DeepEqual(analytics.MapResult(analytics.WordCountOp{}, res[i]), want) {
			t.Errorf("duplicate op result %d mismatch", i)
		}
	}
}

// TestFusedSeqOpWithoutSequences: a batch containing any sequence op on a
// words-only engine must fail up front with ErrNoSequences.
func TestFusedSeqOpWithoutSequences(t *testing.T) {
	_, d, g := corpus(t, 50, 3, 200, 30)
	e := newEngine(t, g, d, Options{Sequences: false})
	_, err := e.RunOps([]analytics.Op{analytics.WordCountOp{}, analytics.SequenceCountOp{}})
	if err != ErrNoSequences {
		t.Fatalf("RunOps = %v, want ErrNoSequences", err)
	}
}
