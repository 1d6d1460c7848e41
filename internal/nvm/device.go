// Package nvm simulates the storage media the paper evaluates on: Intel
// Optane persistent memory (byte-addressable, 256 B media granularity,
// asymmetric read/write latency), an NVMe SSD and a SAS HDD.  The paper's
// DRAM baseline is not a medium here: it is TADOC itself (internal/tadoc),
// whose structures live on the Go heap.
//
// No persistent-memory hardware is available in this environment, so the
// package substitutes a cost-model simulation: every device is a SimDevice,
// backed by page mappings outside the Go heap (of a file, for real
// durability, or anonymous) and an explicit access-cost model.  Each read or
// write is charged per media granule through a small simulated device cache
// (the Optane "XPBuffer", an OS page cache for block devices), and the
// accumulated cost is reported as modeled time.  The paper's two challenges —
// poor locality under a 256 B granularity and redundant access from structure
// reconstruction — are properties of the access *pattern*, which this model
// charges faithfully.
package nvm

import (
	"errors"
	"fmt"
)

// Kind identifies the simulated medium.  Every kind is persistent: a device
// keeps a durable image behind its volatile one.
type Kind int

const (
	// KindNVM is byte-addressable persistent memory with a 256 B media
	// granule, modeled on Intel Optane PMem in App Direct (DAX) mode.  It
	// is the zero value: the medium this system is built for.
	KindNVM Kind = iota
	// KindSSD is a block device with 4 KiB blocks and NVMe-class latency.
	KindSSD
	// KindHDD is a block device with 4 KiB blocks and a seek penalty for
	// non-sequential access.
	KindHDD
)

// String returns the conventional short name of the medium.
func (k Kind) String() string {
	switch k {
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

// Common errors returned by devices.
var (
	ErrOutOfRange = errors.New("nvm: access out of device range")
	ErrClosed     = errors.New("nvm: device is closed")
	ErrFailPoint  = errors.New("nvm: injected failure")
)

// Stats is a snapshot of device access counters.  ModeledNanos is the total
// modeled device time: the sum of per-access costs from the device's
// CostModel, including cache effects, flushes, and seeks.
type Stats struct {
	Reads           int64 // read accesses
	Writes          int64 // write accesses
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
