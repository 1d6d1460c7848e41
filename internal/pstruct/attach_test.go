package pstruct

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// TestAttachChargesLikeOpen: re-attaching a caller-owned handle must cost the
// device exactly what opening a fresh table object did — the marker word read
// twice (dispatch, then size) and the entry count, as three accesses — and
// must yield the same counter.  One handle is re-pointed across a hash table
// and a dense counter, on an owned and on a shared device.
func TestAttachChargesLikeOpen(t *testing.T) {
	for _, shared := range []bool{false, true} {
		poolA, poolB, devA, devB := newPoolPair(t, 1<<20)
		defer devA.Discard()
		defer devB.Discard()
		var offs []int64
		for _, p := range []*pmem.Pool{poolA, poolB} {
			ht, err := NewHashTable(p, 100)
			if err != nil {
				t.Fatal(err)
			}
			dc, err := NewDenseCounter(p, 300)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k < 60; k++ {
				if _, err := ht.Add(k*977, k); err != nil {
					t.Fatal(err)
				}
				if _, err := dc.Add(k*5, k); err != nil {
					t.Fatal(err)
				}
			}
			ht.SyncLen()
			dc.SyncLen()
			offs = []int64{ht.Base(), dc.Base()}
		}
		if shared {
			devA.Share()
			devB.Share()
		}
		requireSameStats(t, "after build", devA, devB)
		var h CounterHandle
		for round := 0; round < 3; round++ {
			for _, off := range offs {
				got, err := h.Attach(poolA, off)
				if err != nil {
					t.Fatalf("Attach: %v", err)
				}
				// Reference: the reads OpenCounterAt made before it went
				// through a handle.
				hdr := poolB.AccessorAt(off, htHeader)
				hdr.Uint64(0)
				hdr.Uint64(0)
				want := int64(hdr.Uint64(8))
				requireSameStats(t, "after attach", devA, devB)
				if got.Len() != want || got.Len() != 59 || got.Base() != off {
					t.Fatalf("attached counter at %d has %d entries, header says %d", got.Base(), got.Len(), want)
				}
			}
		}
		// The attached counter is the stored one.
		for _, off := range offs {
			got, err := h.Attach(poolA, off)
			if err != nil {
				t.Fatalf("Attach: %v", err)
			}
			n := 0
			got.Range(func(k, v uint64) bool {
				n++
				if w, err := got.Get(k); err != nil || w != v {
					t.Fatalf("Get(%d) = %d, %v; Range yielded %d", k, w, err, v)
				}
				return true
			})
			if n != 59 {
				t.Fatalf("attached counter ranged %d entries, want 59", n)
			}
		}
	}
}

// attached keeps the benchmark's opens from being optimized away.
var attached Counter

// BenchmarkCounterAttach times the per-rule table open of a session
// traversal on a shared device: re-attaching one handle against allocating a
// table object per open.
func BenchmarkCounterAttach(b *testing.B) {
	dev := nvm.New(nvm.KindNVM, 1<<20)
	defer dev.Discard()
	p, err := pmem.Create(dev, pmem.Options{LogCap: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	ht, err := NewHashTable(p, 100)
	if err != nil {
		b.Fatal(err)
	}
	dev.Share()
	b.Run("handle", func(b *testing.B) {
		b.ReportAllocs()
		var h CounterHandle
		for i := 0; i < b.N; i++ {
			if attached, err = h.Attach(p, ht.Base()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if attached, err = OpenCounterAt(p, ht.Base()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRecreateCounterAt: a counter's header word is enough to rebuild it
// empty where it stood — same kind, same shape, usable, whatever the region
// held — and a word or an offset that does not describe a counter inside the
// pool is refused, never followed.
func TestRecreateCounterAt(t *testing.T) {
	p := testPool(t, 1<<20)
	ht, err := NewHashTable(p, 40)
	must(t, err)
	dc, err := NewDenseCounter(p, 300)
	must(t, err)
	for _, c := range []Counter{ht, dc} {
		for k := uint64(0); k < 30; k++ {
			if _, err := c.Add(k*7, k+1); err != nil {
				t.Fatal(err)
			}
		}
		c.SyncLen()
		re, err := RecreateCounterAt(p, c.Base(), c.Header())
		if err != nil {
			t.Fatalf("%T: RecreateCounterAt: %v", c, err)
		}
		if reflect.TypeOf(re) != reflect.TypeOf(c) || re.Base() != c.Base() || re.Header() != c.Header() {
			t.Fatalf("%T at %d (header %#x) came back as %T at %d (header %#x)",
				c, c.Base(), c.Header(), re, re.Base(), re.Header())
		}
		n := 0
		re.Range(func(k, v uint64) bool { n++; return true })
		if n != 0 || re.Len() != 0 {
			t.Errorf("%T: recreated counter ranges %d entries, Len %d, want empty", c, n, re.Len())
		}
		if v, err := re.Add(14, 5); err != nil || v != 5 {
			t.Errorf("%T: Add on the recreated counter = %d, %v, want 5", c, v, err)
		}
		// What a later attach finds is the recreated counter.
		at, err := OpenCounterAt(p, c.Base())
		if err != nil {
			t.Fatalf("%T: OpenCounterAt: %v", c, err)
		}
		if v, err := at.Get(14); err != nil || v != 5 {
			t.Errorf("%T: attached Get(14) = %d, %v, want 5", c, v, err)
		}
		if _, err := at.Get(7); !errors.Is(err, ErrNotFound) {
			t.Errorf("%T: a key of the old contents survived: %v", c, err)
		}
	}

	for _, tc := range []struct {
		name string
		off  int64
		w    uint64
	}{
		{"zero word", ht.Base(), 0},
		{"capacity not a power of two", ht.Base(), 48},
		{"hash table larger than the pool", ht.Base(), 1 << 30},
		{"dense counter larger than the pool", ht.Base(), denseMarker | 1<<30},
		{"size whose footprint overflows", ht.Base(), denseMarker | 1<<61},
		{"empty dense counter", ht.Base(), denseMarker},
		{"straddling the pool's end", p.Size() - 100, 8},
		{"beyond the pool", p.Size() + 8, 8},
		{"offset zero", 0, 8},
		{"negative offset", -8, 8},
	} {
		if c, err := RecreateCounterAt(p, tc.off, tc.w); !errors.Is(err, ErrBounds) {
			t.Errorf("%s: RecreateCounterAt = %v, %v, want ErrBounds", tc.name, c, err)
		}
	}
	// Reattaching is refused the same way when the header itself is not in
	// the pool (offsets reach recovery from durable state).
	for _, off := range []int64{-8, 0, p.Size() - 8, p.Size() + 8} {
		if c, err := OpenCounterAt(p, off); !errors.Is(err, ErrBounds) {
			t.Errorf("OpenCounterAt(%d) = %v, %v, want ErrBounds", off, c, err)
		}
	}
}
