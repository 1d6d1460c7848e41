// Package metrics provides the measurement plumbing of the evaluation:
// phase timers that pair wall-clock time with modeled device time (the
// substitute for the paper's Optane hardware), and DRAM-residency estimation
// (the RSS analogue behind the paper's §VI-C space-savings numbers).
package metrics

import (
	"sync/atomic"
	"time"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Meter accumulates modeled CPU time.  Engines charge it for the
// data-structure work the device model cannot see — hash operations on
// DRAM-resident maps, per-token stream processing, sorting — using the Cost
// constants below.  Without this, a simulation would misattribute cost:
// wall-clock time charges the fine-grained engine ~100 ns of Go call
// overhead per 8-byte access while batched scans amortize it, inverting
// every ratio.
type Meter struct {
	nanos atomic.Int64
}

// Charge adds ops operations at perOp modeled nanoseconds each.
func (m *Meter) Charge(ops, perOp int64) {
	if ops > 0 {
		m.nanos.Add(ops * perOp)
	}
}

// Nanos returns the accumulated modeled CPU time.
func (m *Meter) Nanos() int64 { return m.nanos.Load() }

// Modeled per-operation CPU costs in nanoseconds, calibrated to commodity
// x86 (a hash-map operation is a hash plus a couple of dependent loads; a
// token scan step is a decode and branch; a sort entry is ~log n compares).
const (
	CostHashOp     = 25 // one hash-structure operation on DRAM
	CostScanToken  = 8  // per-token stream processing
	CostMergeEntry = 25 // merging one (key, count) entry between structures
	CostSortEntry  = 60 // per-entry comparison-sort work
	CostSeqOp      = 60 // one n-gram hash-structure operation (wider key,
	// growth amortization)
	CostTxOverhead = 1200 // software overhead of one general-purpose PMDK
	// transaction (undo-log setup, tx begin/commit bookkeeping); the naive
	// port of §III-B pays it per mutation, which is most of its 13.37x
)

// Span is one measured interval: wall-clock, the modeled device time, and
// the modeled CPU time accumulated during it.  Total — the evaluation's
// reporting metric — is modeled device + modeled CPU; wall time is kept for
// diagnostics (it measures the simulator, not the simulated system).
type Span struct {
	Wall     time.Duration
	Device   nvm.Stats
	CPUNanos int64

	// CriticalNanos, when non-zero, is the critical-path total of phases
	// that executed in parallel (set by MergeParallel): the span's Total.
	// Device and CPUNanos then hold the summed work of all lanes — the
	// right aggregates for endurance and energy accounting — while Total
	// reports the elapsed modeled time of the slowest lane.
	CriticalNanos int64

	started time.Time
	base    nvm.Stats
	baseCPU int64
	dev     *nvm.SimDevice
	cpu     *Meter
}

// Start begins measuring against dev and cpu (either may be nil).
func Start(dev *nvm.SimDevice, cpu *Meter) *Span {
	//ntalint:ignore determcheck Wall is a diagnostic sidecar: modeled figures come from Device/CPU meters, never wall-clock.
	s := &Span{started: time.Now(), dev: dev, cpu: cpu}
	if dev != nil {
		s.base = dev.Stats()
	}
	if cpu != nil {
		s.baseCPU = cpu.Nanos()
	}
	return s
}

// Stop ends the span and freezes its measurements.
func (s *Span) Stop() *Span {
	//ntalint:ignore determcheck Wall is a diagnostic sidecar: modeled figures come from Device/CPU meters, never wall-clock.
	s.Wall = time.Since(s.started)
	if s.dev != nil {
		s.Device = s.dev.Stats().Sub(s.base)
	}
	if s.cpu != nil {
		s.CPUNanos = s.cpu.Nanos() - s.baseCPU
	}
	return s
}

// Modeled returns the modeled device time of the span.
func (s Span) Modeled() time.Duration {
	return time.Duration(s.Device.ModeledNanos)
}

// CPU returns the modeled CPU time of the span.
func (s Span) CPU() time.Duration { return time.Duration(s.CPUNanos) }

// Total returns modeled device + modeled CPU time, the headline metric —
// or, for a parallel-merged span, the critical path across its lanes.
func (s Span) Total() time.Duration {
	if s.CriticalNanos > 0 {
		return time.Duration(s.CriticalNanos)
	}
	return s.Modeled() + s.CPU()
}

// MergeParallel aggregates the spans of work that executed concurrently —
// one lane per shard.  The merged Total is the slowest lane's Total (the
// parallel phase ends when the last shard finishes); device statistics and
// CPU nanos are summed across lanes, preserving totals for read/write and
// endurance accounting; Wall is the maximum, matching how the lanes
// actually overlapped.
func MergeParallel(spans ...Span) Span {
	var out Span
	for _, sp := range spans {
		if sp.Wall > out.Wall {
			out.Wall = sp.Wall
		}
		out.Device = out.Device.Add(sp.Device)
		out.CPUNanos += sp.CPUNanos
		if t := int64(sp.Total()); t > out.CriticalNanos {
			out.CriticalNanos = t
		}
	}
	return out
}

// AddSerial extends a span with work that ran after its parallel lanes
// completed (the coordinator's merge step): serial nanos extend the
// critical path as well as the CPU account.
func (s Span) AddSerial(cpuNanos int64) Span {
	s.CPUNanos += cpuNanos
	if s.CriticalNanos > 0 {
		s.CriticalNanos += cpuNanos
	}
	return s
}

// AddParallel extends a span with work that ran on parallel lanes after it —
// the key-range parts of a parallel gather: every lane's nanos add to the CPU
// account, the slowest lane's to the critical path.  The receiver's total is
// frozen first, so its device work is not counted again through the
// Modeled+CPU fallback.  No lanes leave the span as it is.
func (s Span) AddParallel(lanes []int64) Span {
	if len(lanes) == 0 {
		return s
	}
	var sum, slowest int64
	for _, n := range lanes {
		sum += n
		slowest = max(slowest, n)
	}
	s.CriticalNanos = int64(s.Total()) + slowest
	s.CPUNanos += sum
	return s
}

// MapBytes and SliceBytes approximate the DRAM bytes held by common Go
// structures; the RSS analogue used for §VI-C.  Constants reflect amd64 Go
// runtime layouts: a map entry costs roughly its key+value plus ~48 bytes of
// bucket and header overhead; a slice costs its backing array.

// MapBytes estimates a map with n entries of the given key/value widths.
func MapBytes(n int, keyBytes, valBytes int) int64 {
	return int64(n) * int64(keyBytes+valBytes+48)
}

// SliceBytes estimates a slice of n elements of w bytes each.
func SliceBytes(n int, w int) int64 { return int64(n) * int64(w) }
