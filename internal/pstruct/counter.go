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
	// Header returns the structure's first pool word, which encodes its kind
	// and size: all RecreateCounterAt needs to rebuild it empty, so an
	// operation-level engine logs the word instead of flushing the new
	// structure.
	Header() uint64
}

var (
	_ Counter = (*HashTable)(nil)
	_ Counter = (*DenseCounter)(nil)
)

// Header implements Counter: the slot capacity.
func (t *HashTable) Header() uint64 { return uint64(t.cap) }

// Header implements Counter: the key-space size under the dense marker.
func (c *DenseCounter) Header() uint64 { return denseMarker | uint64(c.size) }

// counterShape decodes a counter's header word: its kind, its size n (slot
// capacity, or key-space size) and its pool footprint.
func counterShape(w uint64) (dense bool, n, full int64, err error) {
	dense = w&denseMarker != 0
	n = int64(w &^ denseMarker)
	if n <= 0 || n > 1<<56 { // far beyond any pool; keeps the products below exact
		return dense, n, 0, fmt.Errorf("pstruct: corrupt counter size %d", n)
	}
	if dense {
		return true, n, DenseCounterBytes(n), nil
	}
	if n&(n-1) != 0 {
		return false, n, 0, fmt.Errorf("pstruct: corrupt hash table capacity %d", n)
	}
	return false, n, htHeader + n + n*16, nil
}

// RecreateCounterAt rebuilds, empty and in place at pool offset off, the
// counter whose header word is w: operation-level recovery replays a logged
// allocation with it before applying the updates logged after it.  Nothing
// the region held before is read.  A word that is no counter header, or a
// region that leaves the pool, is ErrBounds — the entry did not come from
// this pool's log.
func RecreateCounterAt(p *pmem.Pool, off int64, w uint64) (Counter, error) {
	dense, n, full, err := counterShape(w)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBounds, err)
	}
	if off <= 0 || full > p.Size()-off {
		return nil, fmt.Errorf("%w: counter [%d, +%d) outside pool", ErrBounds, off, full)
	}
	acc := p.AccessorAt(off, full)
	if dense {
		acc.Fill(0, full, 0)
		acc.PutUint64(0, w)
		return &DenseCounter{acc: acc, size: n}, nil
	}
	t := newHT(acc, n)
	acc.PutUint64(0, w)
	t.ResetSlots()
	return t, nil
}

// OpenCounterAt reattaches to whichever counter kind lives at pool offset
// off, dispatching on the header marker.  Recovery calls it with offsets read
// from durable state, so a header that lies outside the pool is ErrBounds,
// not a panic.
func OpenCounterAt(p *pmem.Pool, off int64) (Counter, error) {
	if off <= 0 || off > p.Size()-htHeader {
		return nil, fmt.Errorf("%w: counter header at %d outside pool", ErrBounds, off)
	}
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
	dense, n, full, err := counterShape(w)
	if err != nil {
		b.End()
		return nil, err
	}
	if off+full > p.Size() {
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
