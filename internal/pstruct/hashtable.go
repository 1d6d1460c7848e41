package pstruct

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// HashTable is the open-addressing hash table of the paper's Figure 4:
// separate status, key, and value buffers laid out consecutively in the
// pool, capacity rounded up to a power of two for cache-friendly masking,
// and pseudo-random probing on collision.  Capacity is fixed at allocation
// from the bottom-up summation bound, so an insert can never trigger the
// read-modify-write reconstruction that makes growable structures expensive
// on NVM.
//
// Layout: cap uint64, count uint64, status[cap] bytes, keys[cap] uint64,
// values[cap] uint64.
type HashTable struct {
	acc   nvm.Accessor
	cap   int64
	mask  uint64
	count int64

	statusOff int64
	keysOff   int64
	valsOff   int64
}

const htHeader = 16

const (
	slotEmpty    = 0
	slotOccupied = 1
)

// HashTableBytes returns the pool footprint of a table able to hold bound
// entries: capacity is the next power of two above 4/3×bound (maximum load
// factor 0.75), power-of-two sized for cache-friendly masking as the paper
// prescribes.
func HashTableBytes(bound int64) int64 {
	c := tableCap(bound)
	return htHeader + c + c*8 + c*8
}

// tableCap converts an entry bound to a power-of-two slot capacity.
func tableCap(bound int64) int64 {
	if bound < 4 {
		bound = 4
	}
	c := int64(8)
	for c*3 < bound*4 {
		c <<= 1
	}
	return c
}

// NewHashTable allocates a table sized for bound entries in the pool.  Only
// the header and status buffer are zeroed — the separate status buffer of
// Figure 4 exists precisely so the 16x larger key/value buffers need no
// initialization traffic.
func NewHashTable(p *pmem.Pool, bound int64) (*HashTable, error) {
	if bound < 0 {
		return nil, fmt.Errorf("pstruct: negative bound %d", bound)
	}
	c := tableCap(bound)
	acc, err := p.Alloc(HashTableBytes(bound), 8)
	if err != nil {
		return nil, err
	}
	acc.Fill(0, htHeader+c, 0)
	acc.PutUint64(0, uint64(c))
	return newHT(acc, c), nil
}

// OpenHashTable reattaches to a table previously allocated at pool offset
// off.
func OpenHashTable(p *pmem.Pool, off int64) (*HashTable, error) {
	hdr := p.AccessorAt(off, htHeader)
	c := int64(hdr.Uint64(0))
	if c <= 0 || c&(c-1) != 0 {
		return nil, fmt.Errorf("pstruct: corrupt hash table capacity %d", c)
	}
	acc := p.AccessorAt(off, htHeader+c+c*16)
	t := newHT(acc, c)
	t.count = int64(acc.Uint64(8))
	return t, nil
}

func newHT(acc nvm.Accessor, c int64) *HashTable {
	t := new(HashTable)
	t.init(acc, c)
	return t
}

// init points t at an empty-count table of c slots in acc.
func (t *HashTable) init(acc nvm.Accessor, c int64) {
	*t = HashTable{
		acc:       acc,
		cap:       c,
		mask:      uint64(c - 1),
		statusOff: htHeader,
		keysOff:   htHeader + c,
		valsOff:   htHeader + c + c*8,
	}
}

// Base returns the table's pool offset.
func (t *HashTable) Base() int64 { return t.acc.Base() }

// Cap returns the slot capacity.
func (t *HashTable) Cap() int64 { return t.cap }

// Len returns the number of occupied slots.
func (t *HashTable) Len() int64 { return t.count }

// hashU64 is a splitmix64 finalizer: cheap, well distributed.
func hashU64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// probe returns the slot for key at probe step i.  The step increment is
// derived from a second hash and forced odd, so the sequence visits every
// slot of the power-of-two table: the paper's "pseudo-random detection and
// hashing" collision policy.
func (t *HashTable) probe(h uint64, i uint64) int64 {
	step := (h>>32)*2 + 1
	return int64((h + i*step) & t.mask)
}

// find locates key's slot.  It returns (slot, true) when present, or the
// first empty slot and false when absent.
func (t *HashTable) find(key uint64) (int64, bool) {
	h := hashU64(key)
	for i := uint64(0); ; i++ {
		s := t.probe(h, i)
		if t.acc.Byte(t.statusOff+s) == slotEmpty {
			return s, false
		}
		if t.acc.Uint64(t.keysOff+s*8) == key {
			return s, true
		}
		if int64(i) >= t.cap {
			// Table full of other keys; no empty slot exists.
			return -1, false
		}
	}
}

// Put sets key to value, inserting if absent.  The in-pool count field is
// written back by Flush, not per operation.
func (t *HashTable) Put(key, value uint64) error {
	s, ok := t.find(key)
	if !ok {
		if s < 0 || t.count >= t.cap {
			return ErrFull
		}
		t.acc.PutByte(t.statusOff+s, slotOccupied)
		t.acc.PutUint64(t.keysOff+s*8, key)
		t.count++
	}
	t.acc.PutUint64(t.valsOff+s*8, value)
	return nil
}

// Add increments key's value by delta (inserting with delta if absent) and
// returns the new value.  This is the frequency-counter operation every
// analytics task uses.
func (t *HashTable) Add(key, delta uint64) (uint64, error) {
	s, ok := t.find(key)
	if !ok {
		if s < 0 || t.count >= t.cap {
			return 0, ErrFull
		}
		t.acc.PutByte(t.statusOff+s, slotOccupied)
		t.acc.PutUint64(t.keysOff+s*8, key)
		t.acc.PutUint64(t.valsOff+s*8, delta)
		t.count++
		return delta, nil
	}
	v := t.acc.Uint64(t.valsOff+s*8) + delta
	t.acc.PutUint64(t.valsOff+s*8, v)
	return v, nil
}

// Get returns key's value, or ErrNotFound.
func (t *HashTable) Get(key uint64) (uint64, error) {
	s, ok := t.find(key)
	if !ok {
		return 0, ErrNotFound
	}
	return t.acc.Uint64(t.valsOff + s*8), nil
}

// Range calls fn for every occupied slot; fn returning false stops early.
// Iteration order is the slot order, not insertion order.
func (t *HashTable) Range(fn func(key, value uint64) bool) {
	// Scan the status buffer in batches to keep device traffic sequential.
	// The zero-copy view is re-fetched per batch: the key/value reads below
	// may write to other structures through fn, but never to this table's
	// status run, so the current view stays valid for its whole batch.
	const batch = 1024
	for start := int64(0); start < t.cap; start += batch {
		n := t.cap - start
		if n > batch {
			n = batch
		}
		status := t.acc.ReadView(t.statusOff+start, n)
		for i := int64(0); i < n; i++ {
			if status[i] != slotOccupied {
				continue
			}
			s := start + i
			// Key and value are one straight-line read: the device is
			// released again before fn runs.
			b := t.acc.BeginReads()
			k := b.Uint64(t.acc, t.keysOff+s*8)
			v := b.Uint64(t.acc, t.valsOff+s*8)
			b.End()
			if !fn(k, v) {
				return
			}
		}
	}
}

// ResetSlots returns the table to its empty state by zeroing the status
// buffer and count (key/value buffers may hold garbage, which empty status
// bytes make unreachable).  Operation-level recovery uses it to rebuild a
// table before replaying the redo log.
func (t *HashTable) ResetSlots() {
	// Chunk boundaries match the historical staging-buffer writes, so the
	// charged granule sequence (and thus modeled time) is unchanged.
	const chunk = 4096
	for off := int64(0); off < t.cap; off += chunk {
		n := t.cap - off
		if n > chunk {
			n = chunk
		}
		t.acc.Fill(t.statusOff+off, n, 0)
	}
	t.count = 0
	t.acc.PutUint64(8, 0)
}

// SyncLen writes the count field back to the pool without flushing, for
// callers about to flush the containing region wholesale (a phase
// checkpoint).
func (t *HashTable) SyncLen() {
	t.acc.PutUint64(8, uint64(t.count))
}

// Flush writes the count field back and persists the whole table.
func (t *HashTable) Flush() error {
	t.acc.PutUint64(8, uint64(t.count))
	return t.acc.FlushAll()
}
