package nvm

import (
	"bytes"
	"errors"
	"testing"
)

// Tests for the granule-precise persistence domain: the pending set between
// Flush (write-back initiated) and Drain (fenced), seeded torn-write crashes
// past ADR, durable-image cloning, and the extended fail points.

func devWrite(t *testing.T, d *SimDevice, p []byte, off int64) {
	t.Helper()
	if _, err := d.WriteAt(p, off); err != nil {
		t.Fatalf("WriteAt(%d): %v", off, err)
	}
}

func devRead(t *testing.T, d *SimDevice, off, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := d.ReadAt(buf, off); err != nil {
		t.Fatalf("ReadAt(%d): %v", off, err)
	}
	return buf
}

func TestFlushedNotDrainedVanishesOnCrash(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	devWrite(t, d, []byte("durable!"), 0)
	must(t, d.Flush(0, 8))
	must(t, d.Drain())
	devWrite(t, d, []byte("pending!"), 256)
	must(t, d.Flush(256, 8))
	// No Drain: the write-back was initiated but never fenced, so a plain
	// crash (at-ADR semantics) loses it.
	must(t, d.Crash())
	if got := devRead(t, d, 0, 8); !bytes.Equal(got, []byte("durable!")) {
		t.Errorf("drained data lost: %q", got)
	}
	if got := devRead(t, d, 256, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("undrained flush survived plain crash: %q", got)
	}
}

func TestDrainRetiresPending(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	devWrite(t, d, []byte("payload1"), 512)
	must(t, d.Flush(512, 8))
	must(t, d.Drain())
	must(t, d.Crash())
	if got := devRead(t, d, 512, 8); !bytes.Equal(got, []byte("payload1")) {
		t.Errorf("flushed+drained data lost: %q", got)
	}
}

// tornFixture builds a device with an all-0x11 durable image and an all-0xEE
// volatile overwrite whose flush is pending (not drained) across every
// granule.
func tornFixture(t *testing.T, size int64) *SimDevice {
	t.Helper()
	d := New(KindNVM, size)
	devWrite(t, d, bytes.Repeat([]byte{0x11}, int(size)), 0)
	must(t, d.Flush(0, size))
	must(t, d.Drain())
	devWrite(t, d, bytes.Repeat([]byte{0xEE}, int(size)), 0)
	must(t, d.Flush(0, size))
	return d
}

func TestCrashAtSeededSubset(t *testing.T) {
	const size = 1 << 13 // 32 granules
	base := tornFixture(t, size)
	defer base.Discard()
	g := base.Model().Granule

	image := func(seed int64) []byte {
		c, err := base.CloneDurable()
		if err != nil {
			t.Fatalf("CloneDurable: %v", err)
		}
		defer c.Discard()
		if err := c.CrashAt(seed); err != nil {
			t.Fatalf("CrashAt(%d): %v", seed, err)
		}
		return devRead(t, c, 0, size)
	}

	// Same seed, same subset: CrashAt is deterministic.
	if !bytes.Equal(image(7), image(7)) {
		t.Fatal("CrashAt(7) not deterministic across clones")
	}

	// Every granule is homogeneous — either the durable 0x11 or the pending
	// 0xEE write-back in full, never a torn granule interior.
	partial := 0
	for seed := int64(0); seed < 8; seed++ {
		img := image(seed)
		var kept, dropped int
		for gr := int64(0); gr < size/g; gr++ {
			gran := img[gr*g : (gr+1)*g]
			switch {
			case bytes.Equal(gran, bytes.Repeat([]byte{0xEE}, int(g))):
				kept++
			case bytes.Equal(gran, bytes.Repeat([]byte{0x11}, int(g))):
				dropped++
			default:
				t.Fatalf("seed %d granule %d torn within the granule", seed, gr)
			}
		}
		if kept > 0 && dropped > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Error("no seed in 0..7 produced a partial subset; torn-write coverage is vacuous")
	}
}

func TestCloneDurableIndependence(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	devWrite(t, d, []byte("old-data"), 0)
	must(t, d.Flush(0, 8))
	must(t, d.Drain())
	devWrite(t, d, []byte("new-data"), 0)
	must(t, d.Flush(0, 8))
	// Pending, not drained.

	c, err := d.CloneDurable()
	if err != nil {
		t.Fatalf("CloneDurable: %v", err)
	}
	defer c.Discard()

	// The clone's volatile view is the durable image (post-crash view).
	if got := devRead(t, c, 0, 8); !bytes.Equal(got, []byte("old-data")) {
		t.Errorf("clone view = %q, want durable image", got)
	}
	// The clone carries the pending set: draining and crashing it lands on
	// the new data.
	must(t, c.Drain())
	must(t, c.Crash())
	if got := devRead(t, c, 0, 8); !bytes.Equal(got, []byte("new-data")) {
		t.Errorf("clone after drain+crash = %q, want pending write retired", got)
	}
	// ... without disturbing the source device in either direction.
	if got := devRead(t, d, 0, 8); !bytes.Equal(got, []byte("new-data")) {
		t.Errorf("source volatile view = %q", got)
	}
	must(t, d.Crash())
	if got := devRead(t, d, 0, 8); !bytes.Equal(got, []byte("old-data")) {
		t.Errorf("source durable image disturbed by clone: %q", got)
	}
}

func TestPersistEventsMonotone(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	if n := d.PersistEvents(); n != 0 {
		t.Fatalf("fresh device events = %d", n)
	}
	devWrite(t, d, make([]byte, 256), 0)
	must(t, d.Flush(0, 256))
	must(t, d.Drain())
	if n := d.PersistEvents(); n != 2 {
		t.Fatalf("events after flush+drain = %d, want 2", n)
	}
	d.ResetStats()
	must(t, d.Crash())
	if n := d.PersistEvents(); n != 2 {
		t.Errorf("events reset by ResetStats/Crash: %d, want 2 (must be monotone)", n)
	}
}

func TestFailFromPersistEventSticky(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	d.FailFromPersistEvent(2)
	must(t, d.Flush(0, 256)) // event 0
	must(t, d.Drain())       // event 1
	if err := d.Flush(0, 256); !errors.Is(err, ErrFailPoint) {
		t.Fatalf("event 2 flush: %v, want ErrFailPoint", err)
	}
	if err := d.Drain(); !errors.Is(err, ErrFailPoint) {
		t.Fatalf("device not dead after its crash event: %v", err)
	}
	d.DisarmFailPoints()
	must(t, d.Flush(0, 256))
	must(t, d.Drain())
}

func TestFailPointsFireOnVolatileDevices(t *testing.T) {
	d := New(KindDRAM, 4096) // no durable store; flushes are no-ops otherwise
	defer d.Discard()

	d.FailAfterFlushes(1)
	must(t, d.Flush(0, 64))
	if err := d.Flush(0, 64); !errors.Is(err, ErrFailPoint) {
		t.Errorf("DRAM flush fail point: %v", err)
	}
	d.DisarmFailPoints()

	d.FailAfterDrains(0)
	if err := d.Drain(); !errors.Is(err, ErrFailPoint) {
		t.Errorf("DRAM drain fail point: %v", err)
	}
	d.DisarmFailPoints()

	d.FailAfterWrites(0)
	if _, err := d.WriteAt([]byte("x"), 0); !errors.Is(err, ErrFailPoint) {
		t.Errorf("DRAM write fail point: %v", err)
	}
	d.DisarmFailPoints()
	devWrite(t, d, []byte("x"), 0)
	must(t, d.Flush(0, 64))
	must(t, d.Drain())
}
