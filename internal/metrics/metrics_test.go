package metrics

import (
	"sync"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

func TestMeterCharge(t *testing.T) {
	var m Meter
	m.Charge(10, 25)
	m.Charge(0, 100)  // no-op
	m.Charge(-5, 100) // no-op
	if got := m.Nanos(); got != 250 {
		t.Errorf("Nanos = %d, want 250", got)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge(1, 3)
			}
		}()
	}
	wg.Wait()
	if got := m.Nanos(); got != 8*1000*3 {
		t.Errorf("Nanos = %d", got)
	}
}

func TestSpanCapturesDeviceAndCPU(t *testing.T) {
	dev := nvm.New(nvm.KindNVM, 4096)
	defer dev.Discard()
	var m Meter

	// Pre-existing activity must not leak into the span.
	buf := make([]byte, 256)
	dev.ReadAt(buf, 0)
	m.Charge(100, 10)

	s := Start(dev, &m)
	dev.WriteAt(buf, 0)
	m.Charge(5, 20)
	s.Stop()

	if s.Device.Writes != 1 || s.Device.Reads != 0 {
		t.Errorf("device delta = %+v", s.Device)
	}
	if s.CPUNanos != 100 {
		t.Errorf("CPU delta = %d, want 100", s.CPUNanos)
	}
	if s.Wall <= 0 {
		t.Error("wall not measured")
	}
	if s.Total() != s.Modeled()+s.CPU() {
		t.Error("Total != Modeled + CPU")
	}
}

func TestSpanNilSources(t *testing.T) {
	s := Start(nil, nil)
	time.Sleep(time.Millisecond)
	s.Stop()
	if s.Wall <= 0 {
		t.Error("wall not measured")
	}
	if s.Total() != 0 {
		t.Errorf("Total = %v, want 0 (no modeled sources)", s.Total())
	}
}

func TestMemEstimates(t *testing.T) {
	if MapBytes(10, 4, 8) != 10*(4+8+48) {
		t.Errorf("MapBytes = %d", MapBytes(10, 4, 8))
	}
	if SliceBytes(7, 8) != 56 {
		t.Errorf("SliceBytes = %d", SliceBytes(7, 8))
	}
}

func TestMergeParallel(t *testing.T) {
	a := Span{CPUNanos: 100, Device: nvm.Stats{ModeledNanos: 400, Reads: 3, BytesRead: 64}}
	b := Span{CPUNanos: 900, Device: nvm.Stats{ModeledNanos: 100, Reads: 1, BytesRead: 16}}
	m := MergeParallel(a, b)
	// Critical path is the slowest lane (b: 1000ns), not the sum (1500ns).
	if m.Total() != 1000 {
		t.Errorf("Total = %v, want 1000ns critical path", m.Total())
	}
	// Work accounts sum across lanes.
	if m.CPUNanos != 1000 || m.Device.ModeledNanos != 500 {
		t.Errorf("summed work = cpu %d dev %d, want 1000/500", m.CPUNanos, m.Device.ModeledNanos)
	}
	if m.Device.Reads != 4 || m.Device.BytesRead != 80 {
		t.Errorf("device stats = %+v, want summed reads", m.Device)
	}
	// Serial merge work extends the critical path.
	if got := m.AddSerial(50).Total(); got != 1050 {
		t.Errorf("AddSerial Total = %v, want 1050ns", got)
	}
	// A single-lane merge preserves the lane's total.
	if got := MergeParallel(a).Total(); got != a.Total() {
		t.Errorf("single-lane Total = %v, want %v", got, a.Total())
	}
}

func TestAddParallel(t *testing.T) {
	a := MergeParallel(
		Span{CPUNanos: 100, Device: nvm.Stats{ModeledNanos: 400, Reads: 3}},
		Span{CPUNanos: 900, Device: nvm.Stats{ModeledNanos: 100, Reads: 1}})
	got := a.AddParallel([]int64{30, 70, 20})
	// The slowest gather lane extends the critical path.
	if got.Total() != 1000+70 {
		t.Errorf("Total = %v, want 1070ns", got.Total())
	}
	// Every lane's nanos add to the CPU account; device work is untouched.
	if got.CPUNanos != 1120 || got.Device.ModeledNanos != 500 || got.Device.Reads != 4 {
		t.Errorf("summed work = cpu %d dev %d reads %d", got.CPUNanos, got.Device.ModeledNanos, got.Device.Reads)
	}
	// A plain (non-merged) receiver freezes its Modeled+CPU total first, so
	// the lanes' CPU is not counted twice through the fallback.
	plain := Span{CPUNanos: 10, Device: nvm.Stats{ModeledNanos: 40}}
	if got := plain.AddParallel([]int64{60, 100}).Total(); got != 150 {
		t.Errorf("plain Total = %v, want 150ns", got)
	}
	// No lanes leave the span as it is.
	if got := plain.AddParallel(nil); got != plain {
		t.Errorf("AddParallel(nil) = %+v, want %+v", got, plain)
	}
}
