// Package pstruct implements the NVM-adapted data structures of the paper's
// §IV-D: a fixed-upper-bound vector and an open-addressing hash table with
// separate status/key/value buffers, both allocated inside a persistent pool
// and sized once from the bottom-up summation bound so they are never
// reconstructed on NVM; a fixed-capacity traversal queue; and deliberately
// naive growable variants that reproduce the reconstruction overhead the
// paper's design eliminates (used by the ablation benchmarks).
package pstruct

import (
	"errors"
	"fmt"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Structure errors.
var (
	ErrFull     = errors.New("pstruct: capacity exceeded (upper bound violated)")
	ErrEmpty    = errors.New("pstruct: structure empty")
	ErrBounds   = errors.New("pstruct: index out of range")
	ErrNotFound = errors.New("pstruct: key not found")
)

// Vector is a fixed-capacity vector of uint64 values in a pool.  Its
// capacity is set once at allocation — in the engine, from the bottom-up
// summation upper bound — so appends never trigger reallocation on NVM.
//
// Layout: cap uint64, len uint64, then cap elements of 8 bytes.
type Vector struct {
	acc nvm.Accessor
	cap int64
	len int64 // cached; authoritative copy lives in the pool
}

const vecHeader = 16

// VectorBytes returns the pool footprint of a Vector with the given
// capacity.
func VectorBytes(capacity int64) int64 { return vecHeader + capacity*8 }

// NewVector allocates a vector with the given fixed capacity in the pool.
func NewVector(p *pmem.Pool, capacity int64) (*Vector, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("pstruct: negative capacity %d", capacity)
	}
	acc, err := p.Alloc(VectorBytes(capacity), 8)
	if err != nil {
		return nil, err
	}
	acc.PutUint64(0, uint64(capacity))
	acc.PutUint64(8, 0)
	return &Vector{acc: acc, cap: capacity}, nil
}

// Base returns the vector's pool offset, for storage in a root slot.
func (v *Vector) Base() int64 { return v.acc.Base() }

// Cap returns the fixed capacity.
func (v *Vector) Cap() int64 { return v.cap }

// Len returns the number of elements.
func (v *Vector) Len() int64 { return v.len }

// Append adds x, returning ErrFull when the upper bound is exhausted.
func (v *Vector) Append(x uint64) error {
	if v.len >= v.cap {
		return ErrFull
	}
	v.acc.PutUint64(vecHeader+v.len*8, x)
	v.len++
	v.acc.PutUint64(8, uint64(v.len))
	return nil
}

// Get returns element i.
func (v *Vector) Get(i int64) (uint64, error) {
	if i < 0 || i >= v.len {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, v.len)
	}
	return v.acc.Uint64(vecHeader + i*8), nil
}

// Set overwrites element i.
func (v *Vector) Set(i int64, x uint64) error {
	if i < 0 || i >= v.len {
		return fmt.Errorf("%w: %d of %d", ErrBounds, i, v.len)
	}
	v.acc.PutUint64(vecHeader+i*8, x)
	return nil
}

// Range calls fn for each element in order; fn returning false stops early.
func (v *Vector) Range(fn func(i int64, x uint64) bool) {
	// Read in batches so sequential layout pays sequential device cost; the
	// zero-copy view decodes straight from the device image.
	const batch = 512
	for start := int64(0); start < v.len; start += batch {
		n := v.len - start
		if n > batch {
			n = batch
		}
		buf := v.acc.ReadView(vecHeader+start*8, n*8)
		for i := int64(0); i < n; i++ {
			x := leU64(buf[i*8:])
			if !fn(start+i, x) {
				return
			}
		}
	}
}

// Flush persists the vector's header and live elements.
func (v *Vector) Flush() error {
	return v.acc.Flush(0, vecHeader+v.len*8)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
