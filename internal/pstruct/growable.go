package pstruct

import (
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// GrowableHashTable is the baseline the paper's upper-bound-sized tables
// replace: a table that starts small and, when the load factor exceeds 1/2,
// allocates a doubled table in the pool and rehashes every entry — the
// "violent reconstruction" whose read-modify-write traffic the paper
// identifies as NVM challenge 2.  Only the NoBounds ablation uses it.
type GrowableHashTable struct {
	pool            *pmem.Pool
	ht              *HashTable
	Reconstructions int
}

// NewGrowableHashTable allocates a growable table with a small initial
// bound.
func NewGrowableHashTable(p *pmem.Pool, initial int64) (*GrowableHashTable, error) {
	if initial < 4 {
		initial = 4
	}
	t, err := NewHashTable(p, initial)
	if err != nil {
		return nil, err
	}
	return &GrowableHashTable{pool: p, ht: t}, nil
}

// Len returns the number of entries.
func (g *GrowableHashTable) Len() int64 { return g.ht.Len() }

// Get returns key's value, or ErrNotFound.
func (g *GrowableHashTable) Get(key uint64) (uint64, error) { return g.ht.Get(key) }

// Range iterates over the entries.
func (g *GrowableHashTable) Range(fn func(key, value uint64) bool) { g.ht.Range(fn) }

// ensure grows the table when it is at its load-factor limit.
func (g *GrowableHashTable) ensure() error {
	if g.ht.Len()*2 < g.ht.Cap() {
		return nil
	}
	bigger, err := NewHashTable(g.pool, g.ht.Cap()) // bound=cap doubles slots
	if err != nil {
		return err
	}
	var rehashErr error
	g.ht.Range(func(k, v uint64) bool {
		rehashErr = bigger.Put(k, v)
		return rehashErr == nil
	})
	if rehashErr != nil {
		return rehashErr
	}
	g.ht = bigger
	g.Reconstructions++
	return nil
}

// Put sets key to value, growing as needed.
func (g *GrowableHashTable) Put(key, value uint64) error {
	if err := g.ensure(); err != nil {
		return err
	}
	return g.ht.Put(key, value)
}

// Add increments key's value by delta, growing as needed.
func (g *GrowableHashTable) Add(key, delta uint64) (uint64, error) {
	if err := g.ensure(); err != nil {
		return 0, err
	}
	return g.ht.Add(key, delta)
}
