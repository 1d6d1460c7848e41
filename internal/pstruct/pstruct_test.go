package pstruct

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// must fails the test on a persistence-path error; used where the call's
// effect, not its error, is under test.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func testPool(t testing.TB, size int64) *pmem.Pool {
	t.Helper()
	dev := nvm.New(nvm.KindNVM, size)
	t.Cleanup(func() { dev.Discard() })
	p, err := pmem.Create(dev, pmem.Options{LogCap: 4096})
	if err != nil {
		t.Fatalf("Create pool: %v", err)
	}
	return p
}

func TestVectorAppendGetSet(t *testing.T) {
	p := testPool(t, 1<<20)
	v, err := NewVector(p, 10)
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := v.Append(i * 7); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := v.Append(1); !errors.Is(err, ErrFull) {
		t.Errorf("append past cap: %v", err)
	}
	if v.Len() != 10 || v.Cap() != 10 {
		t.Errorf("len/cap = %d/%d", v.Len(), v.Cap())
	}
	for i := int64(0); i < 10; i++ {
		got, err := v.Get(i)
		if err != nil || got != uint64(i)*7 {
			t.Errorf("Get(%d) = %d, %v", i, got, err)
		}
	}
	if err := v.Set(3, 999); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if got, _ := v.Get(3); got != 999 {
		t.Errorf("after Set, Get(3) = %d", got)
	}
	if _, err := v.Get(10); !errors.Is(err, ErrBounds) {
		t.Errorf("Get out of range: %v", err)
	}
	if err := v.Set(-1, 0); !errors.Is(err, ErrBounds) {
		t.Errorf("Set out of range: %v", err)
	}
}

func TestVectorRangeAndEarlyStop(t *testing.T) {
	p := testPool(t, 1<<22)
	v, _ := NewVector(p, 2000)
	for i := uint64(0); i < 2000; i++ {
		v.Append(i)
	}
	var sum, visits uint64
	v.Range(func(i int64, x uint64) bool {
		if uint64(i) != x {
			t.Fatalf("Range order broken at %d: %d", i, x)
		}
		sum += x
		visits++
		return true
	})
	if visits != 2000 || sum != 2000*1999/2 {
		t.Errorf("visits=%d sum=%d", visits, sum)
	}
	visits = 0
	v.Range(func(i int64, x uint64) bool { visits++; return visits < 5 })
	if visits != 5 {
		t.Errorf("early stop visits = %d", visits)
	}
}

func TestHashTablePutGet(t *testing.T) {
	p := testPool(t, 1<<20)
	h, err := NewHashTable(p, 100)
	if err != nil {
		t.Fatalf("NewHashTable: %v", err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := h.Put(i*31+7, i); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if h.Len() != 100 {
		t.Errorf("Len = %d", h.Len())
	}
	for i := uint64(0); i < 100; i++ {
		got, err := h.Get(i*31 + 7)
		if err != nil || got != i {
			t.Errorf("Get(%d) = %d, %v", i*31+7, got, err)
		}
	}
	if _, err := h.Get(999999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
	// Overwrite does not change count.
	h.Put(7, 42)
	if h.Len() != 100 {
		t.Errorf("Len after overwrite = %d", h.Len())
	}
	if got, _ := h.Get(7); got != 42 {
		t.Errorf("overwritten value = %d", got)
	}
}

func TestHashTableAdd(t *testing.T) {
	p := testPool(t, 1<<20)
	h, _ := NewHashTable(p, 10)
	if v, err := h.Add(5, 3); err != nil || v != 3 {
		t.Errorf("first Add = %d, %v", v, err)
	}
	if v, err := h.Add(5, 4); err != nil || v != 7 {
		t.Errorf("second Add = %d, %v", v, err)
	}
	if got, _ := h.Get(5); got != 7 {
		t.Errorf("Get after Add = %d", got)
	}
}

func TestHashTableCapacityPowerOfTwo(t *testing.T) {
	for _, bound := range []int64{0, 1, 3, 4, 100, 1000} {
		p := testPool(t, 1<<22)
		h, err := NewHashTable(p, bound)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if c := h.Cap(); c&(c-1) != 0 {
			t.Errorf("bound %d: cap %d not a power of two", bound, c)
		}
		if bound > 0 && h.Cap() < bound {
			t.Errorf("bound %d: cap %d too small", bound, h.Cap())
		}
	}
}

func TestHashTableFull(t *testing.T) {
	p := testPool(t, 1<<20)
	h, _ := NewHashTable(p, 4) // cap 8 or 16
	var err error
	var i uint64
	for ; i < 1000; i++ {
		if err = h.Put(i, i); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, filled %d entries: %v", i, err)
	}
	// Existing entries still readable after the failed insert.
	for j := uint64(0); j < i; j++ {
		if got, err := h.Get(j); err != nil || got != j {
			t.Errorf("Get(%d) after full = %d, %v", j, got, err)
		}
	}
}

func TestHashTableRange(t *testing.T) {
	p := testPool(t, 1<<20)
	h, _ := NewHashTable(p, 50)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 50; i++ {
		k := i * 1000003
		h.Put(k, i)
		want[k] = i
	}
	got := map[uint64]uint64{}
	h.Range(func(k, v uint64) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	n := 0
	h.Range(func(k, v uint64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestHashTableReopen(t *testing.T) {
	dev := nvm.New(nvm.KindNVM, 1<<20)
	defer dev.Discard()
	p, _ := pmem.Create(dev, pmem.Options{LogCap: 4096})
	h, _ := NewHashTable(p, 20)
	for i := uint64(0); i < 20; i++ {
		h.Add(i, i+1)
	}
	must(t, h.Flush())
	p.SetRoot(1, h.Base())
	must(t, p.Checkpoint(1))
	must(t, dev.Crash())

	p2, _ := pmem.Open(dev)
	off, _ := p2.Root(1)
	h2, err := OpenCounterAt(p2, off)
	if err != nil {
		t.Fatalf("OpenCounterAt: %v", err)
	}
	if h2.Len() != 20 {
		t.Errorf("reopened Len = %d", h2.Len())
	}
	for i := uint64(0); i < 20; i++ {
		if got, err := h2.Get(i); err != nil || got != i+1 {
			t.Errorf("reopened Get(%d) = %d, %v", i, got, err)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	p := testPool(t, 1<<20)
	q, err := NewQueue(p, 4)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	if _, err := q.Pop(); !errors.Is(err, ErrEmpty) {
		t.Errorf("pop empty: %v", err)
	}
	for i := uint32(0); i < 4; i++ {
		if err := q.Push(i); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	if err := q.Push(9); !errors.Is(err, ErrFull) {
		t.Errorf("push full: %v", err)
	}
	for i := uint32(0); i < 4; i++ {
		got, err := q.Pop()
		if err != nil || got != i {
			t.Errorf("Pop = %d, %v; want %d", got, err, i)
		}
	}
	// Wraparound.
	for round := 0; round < 10; round++ {
		q.Push(uint32(round))
		got, _ := q.Pop()
		if got != uint32(round) {
			t.Errorf("wraparound round %d: got %d", round, got)
		}
	}
	q.Push(1)
	q.Reset()
	if q.Len() != 0 {
		t.Errorf("after Reset, Len = %d", q.Len())
	}
}

func TestGrowableCostsMoreThanBounded(t *testing.T) {
	// The paper's claim behind bottom-up summation: pre-sizing avoids the
	// redundant NVM traffic of reconstruction.  Verify the growable table
	// writes strictly more bytes than a bounded one for the same workload.
	const n = 4096
	devA := nvm.New(nvm.KindNVM, 1<<22)
	defer devA.Discard()
	poolA, _ := pmem.Create(devA, pmem.Options{})
	bounded, _ := NewHashTable(poolA, n)
	devA.ResetStats()
	for i := uint64(0); i < n; i++ {
		bounded.Put(i, i)
	}
	boundedBytes := devA.Stats().BytesWritten

	devB := nvm.New(nvm.KindNVM, 1<<22)
	defer devB.Discard()
	poolB, _ := pmem.Create(devB, pmem.Options{})
	grow, _ := NewGrowableHashTable(poolB, 4)
	devB.ResetStats()
	for i := uint64(0); i < n; i++ {
		grow.Put(i, i)
	}
	growBytes := devB.Stats().BytesWritten

	if growBytes <= boundedBytes {
		t.Errorf("growable wrote %d bytes <= bounded %d", growBytes, boundedBytes)
	}
}

func TestGrowableHashTable(t *testing.T) {
	p := testPool(t, 1<<24)
	g, err := NewGrowableHashTable(p, 4)
	if err != nil {
		t.Fatalf("NewGrowableHashTable: %v", err)
	}
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if _, err := g.Add(i, i); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if g.Len() != n {
		t.Errorf("Len = %d", g.Len())
	}
	if g.Reconstructions == 0 {
		t.Error("expected rehash reconstructions")
	}
	for i := uint64(0); i < n; i += 97 {
		if got, err := g.Get(i); err != nil || got != i {
			t.Errorf("Get(%d) = %d, %v", i, got, err)
		}
	}
	if err := g.Put(5, 123); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, _ := g.Get(5); got != 123 {
		t.Errorf("Put overwrite = %d", got)
	}
}

func TestQuickHashTableMatchesMap(t *testing.T) {
	// Property: the pool hash table behaves exactly like a Go map under a
	// random workload of Put/Add/Get.
	f := func(ops []struct {
		Key   uint16
		Delta uint16
		Kind  uint8
	}) bool {
		p := testPool(t, 1<<24)
		h, err := NewHashTable(p, int64(len(ops))+4)
		if err != nil {
			return false
		}
		shadow := map[uint64]uint64{}
		for _, op := range ops {
			k, d := uint64(op.Key), uint64(op.Delta)
			switch op.Kind % 3 {
			case 0:
				if err := h.Put(k, d); err != nil {
					return false
				}
				shadow[k] = d
			case 1:
				if _, err := h.Add(k, d); err != nil {
					return false
				}
				shadow[k] += d
			case 2:
				got, err := h.Get(k)
				want, ok := shadow[k]
				if ok != (err == nil) {
					return false
				}
				if ok && got != want {
					return false
				}
			}
		}
		if h.Len() != int64(len(shadow)) {
			return false
		}
		for k, want := range shadow {
			got, err := h.Get(k)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickQueueMatchesSlice(t *testing.T) {
	f := func(ops []int8) bool {
		p := testPool(t, 1<<20)
		q, err := NewQueue(p, 64)
		if err != nil {
			return false
		}
		var shadow []uint32
		for i, op := range ops {
			if op >= 0 {
				err := q.Push(uint32(i))
				if len(shadow) >= 64 {
					if !errors.Is(err, ErrFull) {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					shadow = append(shadow, uint32(i))
				}
			} else {
				got, err := q.Pop()
				if len(shadow) == 0 {
					if !errors.Is(err, ErrEmpty) {
						return false
					}
				} else {
					if err != nil || got != shadow[0] {
						return false
					}
					shadow = shadow[1:]
				}
			}
		}
		return q.Len() == int64(len(shadow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashTableRandomizedChurn(t *testing.T) {
	p := testPool(t, 1<<24)
	h, _ := NewHashTable(p, 5000)
	r := rand.New(rand.NewSource(42))
	shadow := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(5000))
		d := uint64(r.Intn(100))
		h.Add(k, d)
		shadow[k] += d
	}
	for k, want := range shadow {
		got, err := h.Get(k)
		if err != nil || got != want {
			t.Fatalf("churn Get(%d) = %d, %v; want %d", k, got, err, want)
		}
	}
}

func TestHashTableResetSlots(t *testing.T) {
	p := testPool(t, 1<<20)
	h, _ := NewHashTable(p, 50)
	for i := uint64(0); i < 50; i++ {
		h.Add(i, i+1)
	}
	h.ResetSlots()
	if h.Len() != 0 {
		t.Errorf("Len after reset = %d", h.Len())
	}
	if _, err := h.Get(5); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after reset: %v", err)
	}
	// Table is fully reusable.
	for i := uint64(0); i < 50; i++ {
		if _, err := h.Add(i, 2); err != nil {
			t.Fatalf("Add after reset: %v", err)
		}
	}
	if got, _ := h.Get(7); got != 2 {
		t.Errorf("value after reuse = %d", got)
	}
}

func TestHashTableLoadFactorCapacity(t *testing.T) {
	// Capacity must accommodate the bound at load factor <= 0.75 so bound
	// inserts always succeed.
	for _, bound := range []int64{5, 100, 1000, 4096} {
		p := testPool(t, 1<<24)
		h, err := NewHashTable(p, bound)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		for i := int64(0); i < bound; i++ {
			if err := h.Put(uint64(i)*7919, uint64(i)); err != nil {
				t.Fatalf("bound %d: insert %d of %d failed: %v", bound, i, bound, err)
			}
		}
	}
}

func TestDenseCounterBasics(t *testing.T) {
	p := testPool(t, 1<<20)
	c, err := NewDenseCounter(p, 100)
	if err != nil {
		t.Fatalf("NewDenseCounter: %v", err)
	}
	if _, err := c.Get(5); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty: %v", err)
	}
	if v, err := c.Add(5, 3); err != nil || v != 3 {
		t.Errorf("Add = %d, %v", v, err)
	}
	if v, err := c.Add(5, 4); err != nil || v != 7 {
		t.Errorf("second Add = %d, %v", v, err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if _, err := c.Add(100, 1); !errors.Is(err, ErrBounds) {
		t.Errorf("out-of-range Add: %v", err)
	}
	if _, err := c.Get(200); !errors.Is(err, ErrBounds) {
		t.Errorf("out-of-range Get: %v", err)
	}
}

func TestDenseCounterRangeAndReopen(t *testing.T) {
	dev := nvm.New(nvm.KindNVM, 1<<20)
	defer dev.Discard()
	p, _ := pmem.Create(dev, pmem.Options{LogCap: 4096})
	c, _ := NewDenseCounter(p, 64)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 64; i += 3 {
		c.Add(i, i+1)
		want[i] = i + 1
	}
	got := map[uint64]uint64{}
	c.Range(func(k, v uint64) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("got[%d] = %d, want %d", k, got[k], v)
		}
	}

	must(t, c.Flush())
	p.SetRoot(0, c.Base())
	must(t, p.Checkpoint(1))
	must(t, dev.Crash())

	p2, _ := pmem.Open(dev)
	off, _ := p2.Root(0)
	c2, err := OpenCounterAt(p2, off)
	if err != nil {
		t.Fatalf("OpenCounterAt: %v", err)
	}
	if _, ok := c2.(*DenseCounter); !ok {
		t.Fatalf("dispatched %T, want *DenseCounter", c2)
	}
	if c2.Len() != int64(len(want)) {
		t.Errorf("reopened Len = %d", c2.Len())
	}
	if v, err := c2.Get(3); err != nil || v != 4 {
		t.Errorf("reopened Get(3) = %d, %v", v, err)
	}
}

func TestOpenCounterAtDispatchesHash(t *testing.T) {
	p := testPool(t, 1<<20)
	h, _ := NewHashTable(p, 10)
	h.Add(1, 2)
	h.SyncLen()
	c, err := OpenCounterAt(p, h.Base())
	if err != nil {
		t.Fatalf("OpenCounterAt: %v", err)
	}
	if _, ok := c.(*HashTable); !ok {
		t.Fatalf("dispatched %T, want *HashTable", c)
	}
	if v, _ := c.Get(1); v != 2 {
		t.Errorf("value = %d", v)
	}
}

func TestDenseVsHashEquivalence(t *testing.T) {
	p := testPool(t, 1<<22)
	h, _ := NewHashTable(p, 500)
	c, _ := NewDenseCounter(p, 500)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		k := uint64(r.Intn(500))
		d := uint64(r.Intn(10) + 1)
		h.Add(k, d)
		c.Add(k, d)
	}
	if h.Len() != c.Len() {
		t.Fatalf("Len: hash %d dense %d", h.Len(), c.Len())
	}
	h.Range(func(k, v uint64) bool {
		got, err := c.Get(k)
		if err != nil || got != v {
			t.Errorf("key %d: hash %d dense %d (%v)", k, v, got, err)
		}
		return true
	})
}
