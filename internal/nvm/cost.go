package nvm

// CostModel describes the modeled timing of a medium.  All costs are in
// nanoseconds.  An access that hits the device cache pays HitNanos; a miss
// pays ReadNanos or WriteNanos per media granule it touches.  Block devices
// additionally pay SeekNanos when the accessed block does not follow the
// previously accessed block.
//
// The default models are drawn from published measurements of the media the
// paper uses (Optane PMem 200, Optane SSD P5800X, 7.2k SAS HDD) and DDR4
// DRAM.  Absolute values matter less than the ratios between media; the
// evaluation reports relative speedups, as the paper does.
type CostModel struct {
	Granule    int64 // media access granularity in bytes
	HitNanos   int64 // cost of an access served by the device cache
	ReadNanos  int64 // cost per granule read from media
	WriteNanos int64 // cost per granule written toward media
	FlushNanos int64 // cost per granule made durable by Flush
	DrainNanos int64 // fixed cost of a Drain (fence / fsync)
	SeekNanos  int64 // extra cost of a non-sequential block access

	// CacheBytes is the capacity of the simulated device cache: the Optane
	// XPBuffer for NVM, a last-level-cache slice for DRAM, an OS page cache
	// under a memory budget for block devices.  Zero disables the cache.
	CacheBytes int64
	// CacheWays is the associativity of the device cache (default 8).
	CacheWays int
}

// Default cost models, exported so benchmarks can document the parameters
// they ran under.  See DESIGN.md for the substitution rationale.
var (
	// DRAMModel: 64 B cache lines, ~80 ns row access on a miss, generous
	// on-chip cache.  DRAM is the paper's theoretical upper bound (Fig 6).
	DRAMModel = CostModel{
		Granule:    64,
		HitNanos:   4,
		ReadNanos:  80,
		WriteNanos: 80,
		FlushNanos: 0,
		DrainNanos: 0,
		CacheBytes: 4 << 20,
		CacheWays:  8,
	}

	// NVMModel: Optane PMem in App Direct (DAX) mode.  DAX memory is
	// CPU-cacheable, so the device cache models an L3 slice (larger lines
	// than DRAM's because the 256 B media granule makes adjacent-access
	// prefetch effectively free); a hit costs SRAM latency with a small
	// DDR-T protocol tax, a miss pays the ~3-4x-DRAM media latency.
	// Writes are asymmetric and flushes (clwb+fence) are explicit.
	// Writes allocate into the cache (~a write-allocate fetch on a miss);
	// the media write itself is charged at Flush time, avoiding double
	// counting.
	NVMModel = CostModel{
		Granule:    256,
		HitNanos:   6,
		ReadNanos:  320,
		WriteNanos: 100,
		FlushNanos: 150,
		DrainNanos: 120,
		CacheBytes: 4 << 20,
		CacheWays:  8,
	}

	// SSDModel: NVMe-class block device, 4 KiB blocks, ~10 µs reads.  The
	// cache models the OS page cache under the paper's 20% memory budget
	// (callers size it per dataset with WithCacheBytes); its high
	// associativity approximates the fully-associative LRU of a real page
	// cache.  Writes land in the page cache cheaply (no device access for
	// freshly allocated pages); the media write is charged at flush
	// (write-back), so write traffic is not double-counted.
	SSDModel = CostModel{
		Granule:    4096,
		HitNanos:   90,
		ReadNanos:  10_000,
		WriteNanos: 300,
		FlushNanos: 12_000,
		DrainNanos: 5_000,
		CacheBytes: 8 << 20,
		CacheWays:  64,
	}

	// HDDModel: 7.2k rpm disk, 4 KiB blocks, ~4 ms average seek plus
	// ~27 µs transfer; sequential access avoids the seek.  Page-cache
	// behaviour as in SSDModel; flushes carry the (mostly sequential)
	// write-back cost.
	HDDModel = CostModel{
		Granule:    4096,
		HitNanos:   90,
		ReadNanos:  27_000,
		WriteNanos: 500,
		FlushNanos: 30_000,
		DrainNanos: 8_000,
		SeekNanos:  4_000_000,
		CacheBytes: 8 << 20,
		CacheWays:  64,
	}
)

// WithCacheBytes returns a copy of m with the device-cache capacity set to n
// bytes.  Used to impose the paper's "memory budget = 20% of the
// uncompressed dataset" page-cache limit on block devices.
func (m CostModel) WithCacheBytes(n int64) CostModel {
	m.CacheBytes = n
	return m
}

// ModelFor returns the default cost model for a medium.
func ModelFor(k Kind) CostModel {
	switch k {
	case KindDRAM:
		return DRAMModel
	case KindNVM:
		return NVMModel
	case KindSSD:
		return SSDModel
	case KindHDD:
		return HDDModel
	default:
		return NVMModel
	}
}

// granules returns the number of media granules the byte range [off, off+n)
// touches under granule size g.
func granules(off, n, g int64) int64 {
	if n <= 0 {
		return 0
	}
	first := off / g
	last := (off + n - 1) / g
	return last - first + 1
}
