package pstruct

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// DenseCounter is the vector form of the paper's §IV-D counter ("it consists
// of vectors or hash tables"): a flat array of 8-byte counts indexed
// directly by key.  When the key space is dense — dictionary word IDs,
// interned sequence IDs — it beats the hash table on both space (8 bytes per
// slot versus 17 plus power-of-two slack) and access cost (one device access
// versus a probe sequence).  The engine picks it whenever the expected entry
// count is a large enough fraction of the key space; the counters ablation
// benchmark quantifies the choice.
//
// Layout: header uint64 (denseMarker | key-space size), count uint64
// (occupied slots, synced like the hash table's), then size x uint64 counts.
// Slots are zeroed at allocation; zero means absent, which costs nothing
// extra because counters never store an explicit zero.
type DenseCounter struct {
	acc   nvm.Accessor
	size  int64
	count int64
}

// denseMarker distinguishes a DenseCounter header from a HashTable header
// when reattaching by pool offset: hash-table capacities are far below 2^62.
const denseMarker = uint64(1) << 62

const denseHeader = 16

// DenseCounterBytes returns the pool footprint for a key space of size n.
func DenseCounterBytes(n int64) int64 { return denseHeader + n*8 }

// NewDenseCounter allocates a zeroed counter over keys [0, size).
func NewDenseCounter(p *pmem.Pool, size int64) (*DenseCounter, error) {
	if size < 1 {
		size = 1
	}
	acc, err := p.AllocZeroed(DenseCounterBytes(size), 8)
	if err != nil {
		return nil, err
	}
	acc.PutUint64(0, denseMarker|uint64(size))
	return &DenseCounter{acc: acc, size: size}, nil
}

// IsDenseAt reports whether the structure at pool offset off is a
// DenseCounter (as opposed to a HashTable).
func IsDenseAt(p *pmem.Pool, off int64) bool {
	return p.AccessorAt(off, 8).Uint64(0)&denseMarker != 0
}

// Base returns the counter's pool offset.
func (c *DenseCounter) Base() int64 { return c.acc.Base() }

// Size returns the key-space size.
func (c *DenseCounter) Size() int64 { return c.size }

// Len returns the number of nonzero slots.
func (c *DenseCounter) Len() int64 { return c.count }

// Add increments key by delta and returns the new value.
func (c *DenseCounter) Add(key, delta uint64) (uint64, error) {
	if int64(key) >= c.size {
		return 0, fmt.Errorf("%w: key %d beyond size %d", ErrBounds, key, c.size)
	}
	off := denseHeader + int64(key)*8
	v := c.acc.Uint64(off)
	if v == 0 && delta != 0 {
		c.count++
	}
	v += delta
	c.acc.PutUint64(off, v)
	return v, nil
}

// Get returns key's count; absent keys read as ErrNotFound to match the
// hash table's contract.
func (c *DenseCounter) Get(key uint64) (uint64, error) {
	if int64(key) >= c.size {
		return 0, fmt.Errorf("%w: key %d beyond size %d", ErrBounds, key, c.size)
	}
	v := c.acc.Uint64(denseHeader + int64(key)*8)
	if v == 0 {
		return 0, ErrNotFound
	}
	return v, nil
}

// Range calls fn for every nonzero slot in key order.
func (c *DenseCounter) Range(fn func(key, value uint64) bool) {
	const batch = 1024
	for start := int64(0); start < c.size; start += batch {
		n := c.size - start
		if n > batch {
			n = batch
		}
		buf := c.acc.ReadView(denseHeader+start*8, n*8)
		for i := int64(0); i < n; i++ {
			v := leU64(buf[i*8:])
			if v == 0 {
				continue
			}
			if !fn(uint64(start+i), v) {
				return
			}
		}
	}
}

// SyncLen writes the occupancy count back without flushing.
func (c *DenseCounter) SyncLen() { c.acc.PutUint64(8, uint64(c.count)) }

// Flush writes the count back and persists the whole counter.
func (c *DenseCounter) Flush() error {
	c.SyncLen()
	return c.acc.FlushAll()
}
