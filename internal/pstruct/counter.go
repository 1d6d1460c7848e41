package pstruct

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Counter is the uniform surface of the paper's §IV-D result structures:
// the hash table and the dense vector counter.  Engines choose between them
// by expected density and reattach to either by pool offset.
type Counter interface {
	// Base returns the structure's pool offset.
	Base() int64
	// Len returns the number of live entries.
	Len() int64
	// Add increments key by delta, returning the new value.
	Add(key, delta uint64) (uint64, error)
	// Get returns key's value, or ErrNotFound.
	Get(key uint64) (uint64, error)
	// Range visits every live entry; fn returning false stops early.
	Range(fn func(key, value uint64) bool)
	// SyncLen writes the entry count back to the pool without flushing.
	SyncLen()
	// Flush persists the whole structure.
	Flush() error
	// FlushInit persists the minimum state that makes the structure's
	// durable image consistent while still empty: the header and status
	// buffer for a hash table, everything for a dense counter (whose data
	// buffer is its status).  Operation-level engines call it once at
	// allocation so crash replay starts from a well-defined image.
	FlushInit() error
}

var (
	_ Counter = (*HashTable)(nil)
	_ Counter = (*DenseCounter)(nil)
)

// FlushInit implements Counter: the hash table's emptiness is encoded
// entirely in its header and status buffer.
func (t *HashTable) FlushInit() error {
	if err := t.acc.Flush(0, htHeader+t.cap); err != nil {
		return err
	}
	return t.acc.Device().Drain()
}

// FlushInit implements Counter: a dense counter's zeroed data is its empty
// state, so everything must be durable.
func (c *DenseCounter) FlushInit() error {
	if err := c.acc.FlushAll(); err != nil {
		return err
	}
	return c.acc.Device().Drain()
}

// OpenCounterAt reattaches to whichever counter kind lives at pool offset
// off, dispatching on the header marker.
func OpenCounterAt(p *pmem.Pool, off int64) (Counter, error) {
	return new(CounterHandle).Attach(p, off)
}

// CounterHandle is caller-owned storage for reattaching to pool counters: a
// traversal that opens one stored table per rule visit keeps a single handle
// and re-points it, instead of allocating a table object per visit.
type CounterHandle struct {
	ht HashTable
	dc DenseCounter
}

// Attach re-points h at the counter at pool offset off and returns it.  The
// returned Counter is h's own storage: it is valid until the next Attach.
// The header is read as three accesses — the marker word to pick the kind,
// the same word again for the size, then the entry count — charged under
// one acquisition of a shared device's lock (nvm.Batch).
func (h *CounterHandle) Attach(p *pmem.Pool, off int64) (Counter, error) {
	hdr := p.AccessorAt(off, htHeader)
	b := hdr.BeginReads()
	b.Uint64(hdr, 0)
	w := b.Uint64(hdr, 0)
	dense := w&denseMarker != 0
	n := int64(w &^ denseMarker) // key-space size, or slot capacity
	full := DenseCounterBytes(n)
	if !dense {
		if n <= 0 || n&(n-1) != 0 {
			b.End()
			return nil, fmt.Errorf("pstruct: corrupt hash table capacity %d", n)
		}
		full = htHeader + n + n*16
	}
	if full < 0 || off+full > p.Size() {
		b.End()
		p.AccessorAt(off, full) // panics: the region lies outside the pool
	}
	count := int64(b.Uint64(hdr, 8))
	b.End()
	acc := p.AccessorAt(off, full)
	if dense {
		h.dc = DenseCounter{acc: acc, size: n, count: count}
		return &h.dc, nil
	}
	h.ht.init(acc, n)
	h.ht.count = count
	return &h.ht, nil
}
