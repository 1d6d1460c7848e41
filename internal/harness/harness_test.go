package harness

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

func tinySpec() datagen.Spec {
	return datagen.DatasetA.Scaled(0.05)
}

func TestGetCorpusCachesAndValidates(t *testing.T) {
	c1, err := GetCorpus(tinySpec())
	if err != nil {
		t.Fatalf("GetCorpus: %v", err)
	}
	c2, err := GetCorpus(tinySpec())
	if err != nil {
		t.Fatalf("GetCorpus: %v", err)
	}
	if c1 != c2 {
		t.Error("corpus not cached")
	}
	if c1.Bytes <= 0 || c1.CompressedBytes <= 0 {
		t.Errorf("sizes = %d, %d", c1.Bytes, c1.CompressedBytes)
	}
	if c1.CompressedBytes >= c1.Bytes {
		t.Errorf("compressed %d not smaller than raw %d", c1.CompressedBytes, c1.Bytes)
	}
	if err := c1.G.Validate(); err != nil {
		t.Errorf("cached grammar invalid: %v", err)
	}
}

func TestRunnersAgreeOnResultsShape(t *testing.T) {
	c, err := GetCorpus(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []analytics.Task{analytics.TaskWordCount, analytics.TaskSequenceCount} {
		nt, err := RunNTADOC(c, task, core.Options{})
		if err != nil {
			t.Fatalf("RunNTADOC(%v): %v", task, err)
		}
		un, err := RunUncompressed(c, task, nvm.KindNVM)
		if err != nil {
			t.Fatalf("RunUncompressed(%v): %v", task, err)
		}
		td, err := RunTADOC(c, task)
		if err != nil {
			t.Fatalf("RunTADOC(%v): %v", task, err)
		}
		for _, r := range []Result{nt, un, td} {
			if r.Total <= 0 {
				t.Errorf("%s %v: nonpositive total %v", r.Engine, task, r.Total)
			}
			if r.Total != r.Init+r.Traversal {
				t.Errorf("%s %v: total %v != init %v + traversal %v",
					r.Engine, task, r.Total, r.Init, r.Traversal)
			}
		}
		if nt.NVMBytes <= 0 {
			t.Error("N-TADOC reported no NVM residency")
		}
		if td.DRAMBytes <= 0 {
			t.Error("TADOC reported no DRAM residency")
		}
	}
}

func TestSpeedupArithmetic(t *testing.T) {
	a := Result{Total: 100}
	b := Result{Total: 200}
	if got := a.Speedup(b); got != 2 {
		t.Errorf("Speedup = %f", got)
	}
	if got := (Result{}).Speedup(b); got != 0 {
		t.Errorf("zero-total speedup = %f", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("empty = %f", got)
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("nonpositive-only = %f", got)
	}
	if got := GeoMean([]float64{-1, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("mixed = %f", got)
	}
}

func TestBlockDeviceBudget(t *testing.T) {
	c, err := GetCorpus(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// SSD and HDD runs must complete and be slower than NVM.
	nt, err := RunNTADOC(c, analytics.TaskWordCount, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := RunNTADOC(c, analytics.TaskWordCount, core.Options{Kind: nvm.KindSSD})
	if err != nil {
		t.Fatal(err)
	}
	hdd, err := RunNTADOC(c, analytics.TaskWordCount, core.Options{Kind: nvm.KindHDD})
	if err != nil {
		t.Fatal(err)
	}
	if !(nt.Total < ssd.Total && ssd.Total < hdd.Total) {
		t.Errorf("media ordering violated: nvm=%v ssd=%v hdd=%v",
			nt.Total, ssd.Total, hdd.Total)
	}
}

func TestDiskReadNanosScalesWithBytes(t *testing.T) {
	small := diskReadNanos(4096)
	big := diskReadNanos(40960)
	if !(small > 0 && big >= 9*small) {
		t.Errorf("diskReadNanos: 4K=%v 40K=%v", small, big)
	}
}

// TestRunShardScaling checks the shard-scaling runner's invariants: more
// shards mean a bigger grammar (lost cross-shard redundancy) but a shorter
// critical path.
func TestRunShardScaling(t *testing.T) {
	// Dataset A is a single file (unshardable); B is many small files.
	c, err := GetCorpus(datagen.DatasetB.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ops := analytics.Ops()
	base, err := RunShardScaling(c, ops, 1, core.Options{})
	if err != nil {
		t.Fatalf("RunShardScaling(1): %v", err)
	}
	cell, err := RunShardScaling(c, ops, 4, core.Options{})
	if err != nil {
		t.Fatalf("RunShardScaling(4): %v", err)
	}
	if base.K != 1 || cell.K != 4 {
		t.Fatalf("K = %d, %d; want 1, 4", base.K, cell.K)
	}
	if cell.Symbols < base.Symbols {
		t.Errorf("4-shard grammar smaller (%d) than unsharded (%d)", cell.Symbols, base.Symbols)
	}
	if cell.TravTotal >= base.TravTotal {
		t.Errorf("4-shard traversal %v not faster than unsharded %v", cell.TravTotal, base.TravTotal)
	}
	if cell.BuildTotal <= 0 || cell.NVMBytes <= 0 {
		t.Errorf("cell = %+v", cell)
	}
}

// TestForEachCellCancelsOnError checks the first error stops the grid:
// queued cells never start, and the error propagates.
func TestForEachCellCancelsOnError(t *testing.T) {
	old := Parallelism()
	SetParallelism(2)
	defer SetParallelism(old)

	boom := errors.New("boom")
	var failed atomic.Bool
	var ranAfter atomic.Int32
	err := ForEachCell(40, func(i int) error {
		if failed.Load() {
			ranAfter.Add(1)
		}
		if i == 0 {
			failed.Store(true)
			return boom
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failing cell closes the cancel channel before releasing its
	// concurrency slot, so at most parallelism-1 cells can be past the
	// cancellation check when the failure lands; everything queued after
	// must be skipped.
	if got := ranAfter.Load(); got > 1 {
		t.Errorf("%d cells started after the failure, want at most 1", got)
	}

	// The serial path stops at the failing cell too.
	SetParallelism(1)
	var ran atomic.Int32
	err = ForEachCell(8, func(i int) error {
		if i == 2 {
			return boom
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, boom) || ran.Load() != 2 {
		t.Errorf("serial: err = %v, ran = %d; want boom, 2", err, ran.Load())
	}
}

// deterministicFields strips the wall-clock-dependent fields from a Result,
// keeping only what the cost model fully determines.
func deterministicFields(r Result) Result {
	r.Init, r.Traversal, r.Total = 0, 0, 0
	r.InitWall, r.TravWall = 0, 0
	return r
}

// TestConcurrentRunsMatchSerial runs the same NTADOC cells serially and then
// concurrently on different corpora and requires every modeled quantity —
// phase modeled times, memory footprints, and the full device Stats — to be
// bit-identical.  Cells own their devices, so concurrency may only change
// wall-clock.  Run under -race this also proves the cells share no device
// state.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	specA := datagen.DatasetA.Scaled(0.05)
	specB := datagen.DatasetB.Scaled(0.05)
	ca, err := GetCorpus(specA)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := GetCorpus(specB)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		c    *Corpus
		task analytics.Task
	}
	cells := []cell{
		{ca, analytics.TaskWordCount},
		{cb, analytics.TaskWordCount},
		{ca, analytics.TaskSequenceCount},
		{cb, analytics.TaskSequenceCount},
	}

	serial := make([]Result, len(cells))
	for i, cl := range cells {
		r, err := RunNTADOC(cl.c, cl.task, core.Options{})
		if err != nil {
			t.Fatalf("serial cell %d: %v", i, err)
		}
		serial[i] = r
	}

	old := Parallelism()
	SetParallelism(len(cells))
	defer SetParallelism(old)

	concurrent := make([]Result, len(cells))
	err = ForEachCell(len(cells), func(i int) error {
		r, err := RunNTADOC(cells[i].c, cells[i].task, core.Options{})
		if err != nil {
			return err
		}
		concurrent[i] = r
		return nil
	})
	if err != nil {
		t.Fatalf("concurrent: %v", err)
	}

	for i := range cells {
		s, c := deterministicFields(serial[i]), deterministicFields(concurrent[i])
		if s != c {
			t.Errorf("cell %d: concurrent result diverged\nserial:     %+v\nconcurrent: %+v", i, s, c)
		}
	}
}
