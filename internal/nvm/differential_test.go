package nvm

import (
	"bytes"
	"math/rand"
	"testing"
)

// differentialConfigs covers every charging regime: cached and uncached,
// byte-granule and block-granule, seek and no-seek, plus an odd (non
// power-of-two) granule to stress boundary arithmetic.
func differentialConfigs() []struct {
	name  string
	kind  Kind
	model CostModel
} {
	nvmNoCache := ModelFor(KindNVM)
	nvmNoCache.CacheBytes = 0
	hddTiny := ModelFor(KindHDD)
	hddTiny.CacheBytes = hddTiny.Granule * 8 // 8 lines: constant eviction
	hddTiny.CacheWays = 2
	odd := ModelFor(KindNVM)
	odd.Granule = 192
	odd.CacheBytes = 192 * 64
	return []struct {
		name  string
		kind  Kind
		model CostModel
	}{
		{"nvm-default", KindNVM, ModelFor(KindNVM)},
		{"nvm-no-cache", KindNVM, nvmNoCache},
		{"dram-default", KindDRAM, ModelFor(KindDRAM)},
		{"ssd-default", KindSSD, ModelFor(KindSSD)},
		{"hdd-default", KindHDD, ModelFor(KindHDD)},
		{"hdd-tiny-cache", KindHDD, hddTiny},
		{"nvm-odd-granule", KindNVM, odd},
	}
}

// applyRandomOp performs one randomly chosen accessor operation on a.  The
// rng must be at the same state for both devices so they see an identical
// schedule.
func applyRandomOp(t *testing.T, rng *rand.Rand, a Accessor, scratch []byte) {
	t.Helper()
	size := a.Size()
	off := rng.Int63n(size)
	maxN := size - off
	n := rng.Int63n(maxN) + 1
	if n > int64(len(scratch)) {
		n = int64(len(scratch))
	}
	switch rng.Intn(10) {
	case 0:
		a.ReadBytes(off, scratch[:n])
	case 1:
		rng.Read(scratch[:n])
		a.WriteBytes(off, scratch[:n])
	case 2:
		_ = a.ReadView(off, n)
	case 3: // repeated same-offset singles: exercises the one-granule memo
		off8 := rng.Int63n(size - 8)
		for i := 0; i < 4; i++ {
			_ = a.Uint64(off8)
			a.PutUint64(off8, rng.Uint64())
		}
	case 4: // alternating offsets: exercises the second-chance memo
		offA := rng.Int63n(size - 8)
		offB := rng.Int63n(size - 8)
		for i := 0; i < 4; i++ {
			_ = a.Uint64(offA)
			_ = a.Uint64(offB)
		}
	case 5:
		k := n / 8
		if k == 0 {
			k = 1
			off = 0
		}
		dst := make([]uint64, k)
		a.ReadU64s(off-off%8, dst)
	case 6:
		k := n / 4
		if k == 0 {
			k = 1
			off = 0
		}
		src := make([]uint32, k)
		for i := range src {
			src[i] = rng.Uint32()
		}
		a.WriteU32s(off-off%4, src)
	case 7:
		a.Fill(off, n, byte(rng.Intn(256)))
	case 8:
		_ = a.Byte(off)
	case 9:
		if err := a.Flush(off, n); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := a.Device().Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

// TestChargeMatchesReference drives an identical random operation schedule
// through a normally-charging device and a reference-charging one
// (straight-line per-granule loop, no run batching, no memo) and requires
// bit-identical bytes, Stats, and modeled nanos after every operation.
// This is the tentpole invariant: the fast paths may only change wall-clock.
func TestChargeMatchesReference(t *testing.T) {
	const size = 1 << 16
	for _, cfg := range differentialConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			fast := NewWithModel(cfg.kind, size, cfg.model)
			ref := NewWithModel(cfg.kind, size, cfg.model)
			ref.refCharge = true
			defer fast.Discard()
			defer ref.Discard()

			accF := NewAccessor(fast, 0, size)
			accR := NewAccessor(ref, 0, size)
			rngF := rand.New(rand.NewSource(7))
			rngR := rand.New(rand.NewSource(7))
			scratchF := make([]byte, 4096)
			scratchR := make([]byte, 4096)
			for i := 0; i < 500; i++ {
				applyRandomOp(t, rngF, accF, scratchF)
				applyRandomOp(t, rngR, accR, scratchR)
				if fs, rs := fast.Stats(), ref.Stats(); fs != rs {
					t.Fatalf("op %d: stats diverged\nfast: %+v\nref:  %+v", i, fs, rs)
				}
				if !bytes.Equal(fast.buf, ref.buf) {
					t.Fatalf("op %d: volatile images diverged", i)
				}
			}
		})
	}
}

// TestBatchOpsChargeIdenticalToScalarEquivalents checks each batch
// operation against the scalar formulation its documentation promises
// charge-identity with, on two identically configured devices.
func TestBatchOpsChargeIdenticalToScalarEquivalents(t *testing.T) {
	const size = 1 << 15
	for _, cfg := range differentialConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			devA := NewWithModel(cfg.kind, size, cfg.model)
			devB := NewWithModel(cfg.kind, size, cfg.model)
			defer devA.Discard()
			defer devB.Discard()
			a := NewAccessor(devA, 0, size)
			b := NewAccessor(devB, 0, size)

			rng := rand.New(rand.NewSource(11))
			check := func(step string) {
				t.Helper()
				if sa, sb := devA.Stats(), devB.Stats(); sa != sb {
					t.Fatalf("%s: stats diverged\nbatch:  %+v\nscalar: %+v", step, sa, sb)
				}
				if !bytes.Equal(devA.buf, devB.buf) {
					t.Fatalf("%s: volatile images diverged", step)
				}
			}

			for i := 0; i < 100; i++ {
				// Offsets deliberately straddle granule boundaries.
				off := rng.Int63n(size - 4096)
				k := rng.Int63n(256) + 1

				u64s := make([]uint64, k)
				for j := range u64s {
					u64s[j] = rng.Uint64()
				}
				raw := make([]byte, k*8)
				for j, v := range u64s {
					putLE64(raw[j*8:], v)
				}
				a.WriteBytes(off, raw)
				b.WriteBytes(off, raw)
				check("WriteBytes")

				dst := make([]uint64, k)
				a.ReadU64s(off, dst)
				b.ReadBytes(off, raw)
				check("ReadU64s vs ReadBytes")
				for j := range dst {
					if dst[j] != u64s[j] {
						t.Fatalf("ReadU64s[%d] = %d, want %d", j, dst[j], u64s[j])
					}
				}

				u32s := make([]uint32, k)
				for j := range u32s {
					u32s[j] = rng.Uint32()
				}
				raw32 := make([]byte, k*4)
				a.WriteU32s(off, u32s)
				for j, v := range u32s {
					putLE32(raw32[j*4:], v)
				}
				b.WriteBytes(off, raw32)
				check("WriteU32s vs WriteBytes")

				dst32 := make([]uint32, k)
				a.ReadU32s(off, dst32)
				b.ReadBytes(off, raw32)
				check("ReadU32s vs ReadBytes")

				fv := byte(rng.Intn(256))
				a.Fill(off, k*8, fv)
				fill := make([]byte, k*8)
				for j := range fill {
					fill[j] = fv
				}
				b.WriteBytes(off, fill)
				check("Fill vs WriteBytes")

				_ = a.ReadView(off, k*8)
				b.ReadBytes(off, raw)
				check("ReadView vs ReadBytes")
			}
		})
	}
}

// TestMemoSameSetAlternation alternates single-granule accesses between two
// granules that share a cache set, where the second-chance memo must NOT
// engage (each access displaces the other from MRU), and requires the
// result to match the reference loop.
func TestMemoSameSetAlternation(t *testing.T) {
	model := ModelFor(KindNVM)
	model.CacheBytes = model.Granule * 32 // 4 sets of 8 ways
	model.CacheWays = 8
	const size = 1 << 16

	fast := NewWithModel(KindNVM, size, model)
	ref := NewWithModel(KindNVM, size, model)
	ref.refCharge = true
	defer fast.Discard()
	defer ref.Discard()
	af := NewAccessor(fast, 0, size)
	ar := NewAccessor(ref, 0, size)

	nsets := (model.CacheBytes / model.Granule) / int64(model.CacheWays)
	sameSetStride := nsets * model.Granule
	diffSetStride := model.Granule
	for _, stride := range []int64{sameSetStride, diffSetStride} {
		for i := 0; i < 64; i++ {
			off := int64(i%2) * stride
			_ = af.Uint64(off)
			_ = ar.Uint64(off)
			if fs, rs := fast.Stats(), ref.Stats(); fs != rs {
				t.Fatalf("stride %d, access %d: stats diverged\nfast: %+v\nref:  %+v",
					stride, i, fs, rs)
			}
		}
	}
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putLE32(b []byte, v uint32) {
	_ = b[3]
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
