package nvm

// deviceCache simulates the small cache that sits in front of the media: the
// on-DIMM XPBuffer for Optane, the OS page cache for block devices.  It is a
// set-associative tag array with LRU replacement inside each set.  Only tags
// are kept — the data itself lives in the device's backing buffer — so the
// cache purely decides whether an access is charged hit or miss cost.  Like
// the device that owns it, it is unsynchronized: one goroutine per device.
type deviceCache struct {
	sets  []cacheSet
	nsets int64
	ways  int
	lineG int64 // line size = media granule
}

type cacheSet struct {
	tags []int64 // granule numbers, -1 = empty; index 0 is MRU
}

// newDeviceCache builds a cache of capacity bytes with the given
// associativity over granule-sized lines.  Returns nil when capacity is too
// small for a single set, which callers treat as "no cache".
func newDeviceCache(capacity, granule int64, ways int) *deviceCache {
	if ways <= 0 {
		ways = 8
	}
	lines := capacity / granule
	nsets := lines / int64(ways)
	if nsets <= 0 {
		return nil
	}
	c := &deviceCache{
		sets:  make([]cacheSet, nsets),
		nsets: nsets,
		ways:  ways,
		lineG: granule,
	}
	for i := range c.sets {
		tags := make([]int64, ways)
		for j := range tags {
			tags[j] = -1
		}
		c.sets[i].tags = tags
	}
	return c
}

// access looks up granule g, inserting it on a miss.  It reports whether the
// access hit.
func (c *deviceCache) access(g int64) bool {
	set := &c.sets[g%c.nsets]
	for i, t := range set.tags {
		if t == g {
			// Move to front (MRU).
			copy(set.tags[1:i+1], set.tags[:i])
			set.tags[0] = g
			return true
		}
	}
	// Miss: evict LRU (last slot), insert at front.
	copy(set.tags[1:], set.tags[:len(set.tags)-1])
	set.tags[0] = g
	return false
}

// invalidate drops granule g if present.  Used when a flush pushes a line out
// toward media on write-through block devices.
func (c *deviceCache) invalidate(g int64) {
	set := &c.sets[g%c.nsets]
	for i, t := range set.tags {
		if t == g {
			copy(set.tags[i:], set.tags[i+1:])
			set.tags[len(set.tags)-1] = -1
			return
		}
	}
}

// reset empties the cache.
func (c *deviceCache) reset() {
	for i := range c.sets {
		for j := range c.sets[i].tags {
			c.sets[i].tags[j] = -1
		}
	}
}
