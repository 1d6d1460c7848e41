package pmem

import (
	"errors"
	"testing"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Torn-write recovery tests: interrupt a persistence sequence at every
// flush/drain event with a sticky device failure, persist a seeded arbitrary
// subset of the pending granules (CrashAt — the past-ADR torn/reordered
// write-back model), and verify Open never panics, never yields a mis-sized
// pool, and always lands in one of the legal states.

const tornSeeds = 3

// checkWellFormed asserts the recovered pool's geometry is sane: the header
// must never describe a pool larger than the device or a watermark outside
// the pool.
func checkWellFormed(t *testing.T, p *Pool, dev *nvm.SimDevice) {
	t.Helper()
	if p.Size() != dev.Size() {
		t.Fatalf("recovered pool size %d != device size %d", p.Size(), dev.Size())
	}
	if p.Allocated() < headerSize || p.Allocated() > p.Size() {
		t.Fatalf("recovered watermark %d outside [%d, %d]", p.Allocated(), int64(headerSize), p.Size())
	}
}

// TestTornCheckpointHeaderAtomic crashes a checkpoint at every persist event
// with torn granule subsets.  The header fits in one media granule, so its
// commit is atomic: recovery must find either the old phase or the new one —
// never a corrupt header, a phase in between, or a mis-sized pool — and when
// the new phase is durable, so is the data it checkpointed.
func TestTornCheckpointHeaderAtomic(t *testing.T) {
	setup := func(t *testing.T) (*Pool, *nvm.SimDevice, int64) {
		t.Helper()
		p, dev := newTestPool(t, 1<<18)
		a, err := p.Alloc(64, 8)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		a.PutUint64(0, 1)
		must(t, p.SetRoot(0, a.Base()))
		must(t, p.Checkpoint(1))
		// The phase-2 value lives in a phase-2 allocation: a checkpoint covers
		// what its phase allocated, not older allocations written in place.
		b, err := p.Alloc(64, 8)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		b.PutUint64(0, 2)
		must(t, p.SetRoot(0, b.Base()))
		return p, dev, b.Base()
	}

	// Count the persist events of the checkpoint under test once.
	p0, dev0, _ := setup(t)
	ev0 := dev0.PersistEvents()
	must(t, p0.Checkpoint(2))
	total := dev0.PersistEvents() - ev0

	for cut := int64(0); cut < total; cut++ {
		for seed := int64(0); seed < tornSeeds; seed++ {
			p, dev, base := setup(t)
			dev.FailFromPersistEvent(dev.PersistEvents() + cut)
			if err := p.Checkpoint(2); err == nil {
				t.Fatalf("cut %d: checkpoint succeeded despite injected failure", cut)
			}
			must(t, dev.CrashAt(seed))
			dev.DisarmFailPoints()

			p2, err := Open(dev)
			if err != nil {
				t.Fatalf("cut %d seed %d: Open: %v", cut, seed, err)
			}
			checkWellFormed(t, p2, dev)
			switch p2.Phase() {
			case 1:
				// Commit never became durable; torn data under the old phase
				// is unreferenced and allowed.
			case 2:
				off, err := p2.Root(0)
				if err != nil || off != base {
					t.Fatalf("cut %d seed %d: phase-2 root = %d, %v", cut, seed, off, err)
				}
				if v := p2.AccessorAt(off, 64).Uint64(0); v != 2 {
					t.Fatalf("cut %d seed %d: phase 2 durable but data = %d, want 2", cut, seed, v)
				}
			default:
				t.Fatalf("cut %d seed %d: recovered phase = %d", cut, seed, p2.Phase())
			}
		}
	}
}

// TestTornTxCommitAtomic crashes a two-write transaction at every persist
// event with torn granule subsets.  Recovery must observe the transaction
// atomically: both writes or neither — never a mix.  A torn redo log whose
// commit record survived but whose payload did not is detected by the log
// CRC and surfaces as ErrCorrupt (the caller then rebuilds), never as a
// partial apply.
func TestTornTxCommitAtomic(t *testing.T) {
	const (
		offA = int64(0)
		offB = int64(512) // a different media granule than offA
	)
	setup := func(t *testing.T) (*Pool, *nvm.SimDevice, int64) {
		t.Helper()
		p, dev := newTestPool(t, 1<<18)
		a, err := p.Alloc(1024, 8)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		a.PutUint64(offA, 1)
		a.PutUint64(offB, 2)
		must(t, p.SetRoot(0, a.Base()))
		must(t, p.Checkpoint(1))
		return p, dev, a.Base()
	}
	runTx := func(p *Pool, base int64) error {
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		if err := tx.WriteUint64(base+offA, 111); err != nil {
			return err
		}
		if err := tx.WriteUint64(base+offB, 222); err != nil {
			return err
		}
		return tx.Commit()
	}

	p0, dev0, base0 := setup(t)
	ev0 := dev0.PersistEvents()
	if err := runTx(p0, base0); err != nil {
		t.Fatalf("reference tx: %v", err)
	}
	total := dev0.PersistEvents() - ev0

	for cut := int64(0); cut < total; cut++ {
		for seed := int64(0); seed < tornSeeds; seed++ {
			p, dev, base := setup(t)
			dev.FailFromPersistEvent(dev.PersistEvents() + cut)
			if err := runTx(p, base); err == nil {
				t.Fatalf("cut %d: tx succeeded despite injected failure", cut)
			}
			must(t, dev.CrashAt(seed))
			dev.DisarmFailPoints()

			p2, err := Open(dev)
			if errors.Is(err, ErrCorrupt) {
				continue // torn log detected; rebuild required, nothing applied
			}
			if err != nil {
				t.Fatalf("cut %d seed %d: Open: %v", cut, seed, err)
			}
			checkWellFormed(t, p2, dev)
			off, err := p2.Root(0)
			if err != nil || off != base {
				t.Fatalf("cut %d seed %d: root = %d, %v", cut, seed, off, err)
			}
			acc := p2.AccessorAt(off, 1024)
			va, vb := acc.Uint64(offA), acc.Uint64(offB)
			oldPair := va == 1 && vb == 2
			newPair := va == 111 && vb == 222
			if !oldPair && !newPair {
				t.Fatalf("cut %d seed %d: non-atomic tx recovery: (%d, %d)", cut, seed, va, vb)
			}
		}
	}
}

// TestTornCreateNeverMisSized crashes pool creation at every persist event
// with torn granule subsets.  Open on the remains must report ErrNoPool or
// ErrCorrupt, or find a fully valid empty pool — never one whose recorded
// geometry disagrees with the device.
func TestTornCreateNeverMisSized(t *testing.T) {
	const size = 1 << 16
	opts := Options{LogCap: 4096}

	dev0 := nvm.New(nvm.KindNVM, size)
	defer dev0.Discard()
	if _, err := Create(dev0, opts); err != nil {
		t.Fatalf("reference Create: %v", err)
	}
	total := dev0.PersistEvents()

	for cut := int64(0); cut < total; cut++ {
		for seed := int64(0); seed < tornSeeds; seed++ {
			func() {
				dev := nvm.New(nvm.KindNVM, size)
				defer dev.Discard()
				dev.FailFromPersistEvent(cut)
				if _, err := Create(dev, opts); err == nil {
					t.Fatalf("cut %d: Create succeeded despite injected failure", cut)
				}
				must(t, dev.CrashAt(seed))
				dev.DisarmFailPoints()

				p, err := Open(dev)
				if errors.Is(err, ErrNoPool) || errors.Is(err, ErrCorrupt) {
					return // nothing durable (or torn header); caller recreates
				}
				if err != nil {
					t.Fatalf("cut %d seed %d: Open: %v", cut, seed, err)
				}
				checkWellFormed(t, p, dev)
				if p.Phase() != 0 {
					t.Fatalf("cut %d seed %d: fresh pool phase = %d", cut, seed, p.Phase())
				}
			}()
		}
	}
}
