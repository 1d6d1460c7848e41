package nvm

import (
	"math/rand"
	"testing"
)

// TestBatchChargesLikeAccessor: a batch is a locking optimization only.  The
// same seeded schedule of reads is issued to two identical devices — through
// batches of random length on one, through the plain Accessor methods on the
// other — in every charging regime, owned and shared: the values read and
// the device Stats (modeled nanos included) must be identical.
func TestBatchChargesLikeAccessor(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		for _, shared := range []bool{false, true} {
			name := cfg.name + "/owned"
			if shared {
				name = cfg.name + "/shared"
			}
			t.Run(name, func(t *testing.T) {
				const size = 1 << 16
				devA := NewWithModel(cfg.kind, size, cfg.model)
				devB := NewWithModel(cfg.kind, size, cfg.model)
				defer devA.Discard()
				defer devB.Discard()
				fill := make([]byte, size)
				rand.New(rand.NewSource(9)).Read(fill)
				a, b := NewAccessor(devA, 64, size-64), NewAccessor(devB, 64, size-64)
				a.WriteBytes(0, fill[:size-64])
				b.WriteBytes(0, fill[:size-64])
				if shared {
					devA.Share()
					devB.Share()
				}
				rng := rand.New(rand.NewSource(10))
				for round := 0; round < 400; round++ {
					batch := a.BeginReads()
					for n := rng.Intn(6); n >= 0; n-- {
						sub := rng.Int63n(a.Size() - 4096)
						ra, rb := a.Slice(sub, 4096), b.Slice(sub, 4096)
						off := rng.Int63n(4000)
						switch rng.Intn(4) {
						case 0:
							if g, w := batch.Byte(ra, off), rb.Byte(off); g != w {
								t.Fatalf("Byte = %d, accessor %d", g, w)
							}
						case 1:
							if g, w := batch.Uint32(ra, off), rb.Uint32(off); g != w {
								t.Fatalf("Uint32 = %d, accessor %d", g, w)
							}
						case 2:
							if g, w := batch.Uint64(ra, off), rb.Uint64(off); g != w {
								t.Fatalf("Uint64 = %d, accessor %d", g, w)
							}
						case 3:
							g, w := make([]uint32, rng.Intn(20)), []uint32(nil)
							w = make([]uint32, len(g))
							batch.Uint32s(ra, off, g)
							rb.Uint32s(off, w)
							for i := range g {
								if g[i] != w[i] {
									t.Fatalf("Uint32s[%d] = %d, accessor %d", i, g[i], w[i])
								}
							}
						}
					}
					batch.End()
					if sa, sb := devA.Stats(), devB.Stats(); sa != sb {
						t.Fatalf("round %d: stats diverged\nbatched:  %+v\naccessor: %+v", round, sa, sb)
					}
				}
			})
		}
	}
}

// TestBatchReleasesDeviceOnPanic: an out-of-range batched read panics like
// an Accessor's, and must not leave a shared device locked behind it.
func TestBatchReleasesDeviceOnPanic(t *testing.T) {
	dev := New(KindNVM, 1<<12)
	defer dev.Discard()
	dev.Share()
	a := NewAccessor(dev, 0, 64)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range batched read did not panic")
			}
		}()
		b := a.BeginReads()
		b.Uint64(a, 60)
	}()
	if !dev.opMu.TryLock() {
		t.Fatal("the device is still locked after the batch panicked")
	}
	dev.opMu.Unlock()
}

// BenchmarkBodyRead times the kernel's rule-body read — three metadata
// fields, a length prefix, the pair stream — on a shared device, as one batch
// and as five Accessor round trips.
func BenchmarkBodyRead(b *testing.B) {
	dev := New(KindNVM, 1<<20)
	defer dev.Discard()
	meta, body := NewAccessor(dev, 0, 64), NewAccessor(dev, 4096, 4+24*4)
	body.PutUint32(0, 24)
	dev.Share()
	flat := make([]uint32, 24)
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd := meta.BeginReads()
			rd.Uint32(meta, 8)
			rd.Uint32(meta, 12)
			rd.Uint64(meta, 0)
			n := rd.Uint32(body, 0)
			rd.Uint32s(body, 4, flat[:n])
			rd.End()
		}
	})
	b.Run("per-access", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			meta.Uint32(8)
			meta.Uint32(12)
			meta.Uint64(0)
			n := body.Uint32(0)
			body.Uint32s(4, flat[:n])
		}
	})
}
