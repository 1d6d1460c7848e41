// Package nvm simulates the storage media the paper evaluates on: Intel
// Optane persistent memory (byte-addressable, 256 B media granularity,
// asymmetric read/write latency), an NVMe SSD, a SAS HDD, and plain DRAM.
//
// No persistent-memory hardware is available in this environment, so the
// package substitutes a cost-model simulation: every device is backed by
// page mappings outside the Go heap (of a file, for real durability, or
// anonymous) and an explicit access-cost model.  Each read or write is
// charged per media granule through a small simulated device cache (the
// Optane "XPBuffer", a CPU cache for DRAM, an OS page cache for block
// devices), and the accumulated cost is reported as modeled time.  The paper's two challenges —
// poor locality under a 256 B granularity and redundant access from structure
// reconstruction — are properties of the access *pattern*, which this model
// charges faithfully.
package nvm

import (
	"errors"
	"fmt"
)

// Kind identifies the simulated medium.
type Kind int

const (
	// KindNVM is byte-addressable persistent memory with a 256 B media
	// granule, modeled on Intel Optane PMem in App Direct (DAX) mode.  It
	// is the zero value: the medium this system is built for.
	KindNVM Kind = iota
	// KindDRAM is volatile memory: 64 B lines, low latency, contents are
	// discarded on Close (reopening yields zeroes).
	KindDRAM
	// KindSSD is a block device with 4 KiB blocks and NVMe-class latency.
	KindSSD
	// KindHDD is a block device with 4 KiB blocks and a seek penalty for
	// non-sequential access.
	KindHDD
)

// String returns the conventional short name of the medium.
func (k Kind) String() string {
	switch k {
	case KindDRAM:
		return "DRAM"
	case KindNVM:
		return "NVM"
	case KindSSD:
		return "SSD"
	case KindHDD:
		return "HDD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Persistent reports whether data written to this medium survives Close
// and reopen.
func (k Kind) Persistent() bool { return k != KindDRAM }

// Common errors returned by devices.
var (
	ErrOutOfRange = errors.New("nvm: access out of device range")
	ErrClosed     = errors.New("nvm: device is closed")
	ErrFailPoint  = errors.New("nvm: injected failure")
)

// Device is a simulated storage medium.  Offsets are byte addresses from the
// start of the device.  A device is owned by one goroutine at a time: access
// charging and statistics are deliberately unsynchronized so the simulator
// adds no lock or atomic traffic to every modeled access.  Concurrent
// experiment cells each own their own device (see internal/harness).
type Device interface {
	// ReadAt copies len(p) bytes at off into p, charging modeled read cost.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt copies p to off, charging modeled write cost.  On persistent
	// media the write reaches the durability domain only after Flush+Drain,
	// mirroring the CPU-cache/ADR behaviour of real persistent memory.
	WriteAt(p []byte, off int64) (int, error)
	// Flush initiates write-back of the byte range [off, off+n) to the
	// persistence domain (the clwb/msync analogue).
	Flush(off, n int64) error
	// Drain blocks until all initiated flushes are durable (the sfence
	// analogue).  For file-backed devices this syncs the backing file.
	Drain() error
	// Size is the device capacity in bytes.
	Size() int64
	// Kind identifies the medium.
	Kind() Kind
	// Stats returns a snapshot of the access counters and modeled cost.
	Stats() Stats
	// ResetStats zeroes the access counters.
	ResetStats()
	// Close releases resources.  Persistent devices keep their contents;
	// DRAM devices lose them.
	Close() error
}

// Stats is a snapshot of device access counters.  ModeledNanos is the total
// modeled device time: the sum of per-access costs from the device's
// CostModel, including cache effects, flushes, and seeks.
type Stats struct {
	Reads           int64 // ReadAt calls
	Writes          int64 // WriteAt calls
	BytesRead       int64 // logical bytes read
	BytesWritten    int64 // logical bytes written
	GranuleReads    int64 // media granules touched by reads (cache misses)
	GranuleWrites   int64 // media granules written back
	CacheHits       int64 // device-cache hits
	CacheMisses     int64 // device-cache misses
	Flushes         int64 // Flush calls
	FlushedBytes    int64 // bytes covered by flushes
	FlushedGranules int64 // media granules those flushes touched: what Flush charges
	Drains          int64 // Drain calls
	Seeks           int64 // non-sequential block transitions (HDD)
	ModeledNanos    int64 // total modeled device time
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:           s.Reads + o.Reads,
		Writes:          s.Writes + o.Writes,
		BytesRead:       s.BytesRead + o.BytesRead,
		BytesWritten:    s.BytesWritten + o.BytesWritten,
		GranuleReads:    s.GranuleReads + o.GranuleReads,
		GranuleWrites:   s.GranuleWrites + o.GranuleWrites,
		CacheHits:       s.CacheHits + o.CacheHits,
		CacheMisses:     s.CacheMisses + o.CacheMisses,
		Flushes:         s.Flushes + o.Flushes,
		FlushedBytes:    s.FlushedBytes + o.FlushedBytes,
		FlushedGranules: s.FlushedGranules + o.FlushedGranules,
		Drains:          s.Drains + o.Drains,
		Seeks:           s.Seeks + o.Seeks,
		ModeledNanos:    s.ModeledNanos + o.ModeledNanos,
	}
}

// Sub returns the field-wise difference s−o; useful for interval deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Writes:          s.Writes - o.Writes,
		BytesRead:       s.BytesRead - o.BytesRead,
		BytesWritten:    s.BytesWritten - o.BytesWritten,
		GranuleReads:    s.GranuleReads - o.GranuleReads,
		GranuleWrites:   s.GranuleWrites - o.GranuleWrites,
		CacheHits:       s.CacheHits - o.CacheHits,
		CacheMisses:     s.CacheMisses - o.CacheMisses,
		Flushes:         s.Flushes - o.Flushes,
		FlushedBytes:    s.FlushedBytes - o.FlushedBytes,
		FlushedGranules: s.FlushedGranules - o.FlushedGranules,
		Drains:          s.Drains - o.Drains,
		Seeks:           s.Seeks - o.Seeks,
		ModeledNanos:    s.ModeledNanos - o.ModeledNanos,
	}
}

// counters is the backing store for Stats, embedded by devices.  Plain
// fields, not atomics: a device belongs to one goroutine (see Device), and
// every modeled access updates several of these, so atomic traffic here is
// pure overhead.
type counters struct {
	reads, writes               int64
	bytesRead, bytesWritten     int64
	granuleReads, granuleWrites int64
	cacheHits, cacheMisses      int64
	flushes, flushedBytes       int64
	flushedGranules             int64
	drains, seeks               int64
	modeledNanos                int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:           c.reads,
		Writes:          c.writes,
		BytesRead:       c.bytesRead,
		BytesWritten:    c.bytesWritten,
		GranuleReads:    c.granuleReads,
		GranuleWrites:   c.granuleWrites,
		CacheHits:       c.cacheHits,
		CacheMisses:     c.cacheMisses,
		Flushes:         c.flushes,
		FlushedBytes:    c.flushedBytes,
		FlushedGranules: c.flushedGranules,
		Drains:          c.drains,
		Seeks:           c.seeks,
		ModeledNanos:    c.modeledNanos,
	}
}

func (c *counters) reset() {
	*c = counters{}
}
