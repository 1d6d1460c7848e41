package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// must fails the test on a persistence-path error; used where the call's
// effect, not its error, is under test.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func newTestPool(t *testing.T, size int64) (*Pool, *nvm.SimDevice) {
	t.Helper()
	dev := nvm.New(nvm.KindNVM, size)
	t.Cleanup(func() { dev.Discard() })
	p, err := Create(dev, Options{LogCap: 4096})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return p, dev
}

func TestCreateOpenRoundTrip(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	a, err := p.Alloc(100, 8)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	a.PutUint64(0, 424242)
	if err := p.SetRoot(0, a.Base()); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := p.Checkpoint(1); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	p2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if p2.Phase() != 1 {
		t.Errorf("Phase = %d, want 1", p2.Phase())
	}
	off, err := p2.Root(0)
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	got := p2.AccessorAt(off, 100)
	if v := got.Uint64(0); v != 424242 {
		t.Errorf("root value = %d", v)
	}
	if p2.Allocated() != p.Allocated() {
		t.Errorf("allocated watermark %d != %d", p2.Allocated(), p.Allocated())
	}
}

func TestOpenNoPool(t *testing.T) {
	dev := nvm.New(nvm.KindNVM, 1<<16)
	defer dev.Discard()
	if _, err := Open(dev); !errors.Is(err, ErrNoPool) {
		t.Errorf("Open on empty device: %v", err)
	}
}

// TestOpenCorruptHeader changes the durable header behind the pool's back:
// any changed byte the CRC covers, root slots included, is ErrCorrupt, and a
// header of an older format is refused by its version before its CRC is read.
func TestOpenCorruptHeader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(head []byte)
		error string
	}{
		{"allocation top", func(head []byte) { head[offTop] ^= 0xff }, ""},
		{"root slot", func(head []byte) { head[offRoots+3*8] ^= 0x01 }, ""},
		{"version 3", func(head []byte) {
			// A version-3 header, sealed as version 3 sealed it: the CRC
			// covered bytes [0,60) only.
			binary.LittleEndian.PutUint32(head[offVersion:], 3)
			binary.LittleEndian.PutUint32(head[offCRC:], crc32.ChecksumIEEE(head[:offCRC]))
		}, "unsupported version 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, dev := newTestPool(t, 1<<16)
			must(t, p.SetRoot(3, 12345))
			must(t, p.Checkpoint(1))
			head := make([]byte, headerSize)
			dev.ReadAt(head, 0)
			tc.edit(head)
			dev.WriteAt(head, 0)
			must(t, dev.Flush(0, headerSize))
			must(t, dev.Drain())
			must(t, dev.Crash())
			_, err := Open(dev)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), tc.error) {
				t.Errorf("Open = %v, want ErrCorrupt %q", err, tc.error)
			}
		})
	}
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	p, _ := newTestPool(t, 1<<16)
	a, err := p.Alloc(10, 64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a.Base()%64 != 0 {
		t.Errorf("base %d not 64-aligned", a.Base())
	}
	b, _ := p.Alloc(10, 64)
	if b.Base()%64 != 0 || b.Base() <= a.Base() {
		t.Errorf("second alloc base %d", b.Base())
	}
	if _, err := p.Alloc(1<<20, 1); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("oversized alloc: %v", err)
	}
	if _, err := p.Alloc(-1, 1); err == nil {
		t.Error("negative alloc should fail")
	}
}

func TestAllocZeroed(t *testing.T) {
	p, dev := newTestPool(t, 1<<18)
	// Dirty the device first so zeroing is observable.
	junk := bytes.Repeat([]byte{0xaa}, 1<<17)
	dev.WriteAt(junk, p.Allocated())
	a, err := p.AllocZeroed(100_000, 8)
	if err != nil {
		t.Fatalf("AllocZeroed: %v", err)
	}
	buf := make([]byte, 100_000)
	a.ReadBytes(0, buf)
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, c)
		}
	}
}

func TestResetReclaims(t *testing.T) {
	p, _ := newTestPool(t, 1<<16)
	before := p.Allocated()
	p.Alloc(1000, 1)
	p.Reset()
	if p.Allocated() != before {
		t.Errorf("after reset allocated = %d, want %d", p.Allocated(), before)
	}
}

func TestRootSlotBounds(t *testing.T) {
	p, _ := newTestPool(t, 1<<16)
	if err := p.SetRoot(-1, 0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("SetRoot(-1): %v", err)
	}
	if err := p.SetRoot(rootSlots, 0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("SetRoot(max): %v", err)
	}
	if _, err := p.Root(rootSlots); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Root(max): %v", err)
	}
}

func TestPhaseLevelCrashRevertsToCheckpoint(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	a, _ := p.Alloc(64, 8)
	a.PutUint64(0, 1)
	p.SetRoot(0, a.Base())
	if err := p.Checkpoint(1); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Phase 2 work, never checkpointed.
	b, _ := p.Alloc(64, 8)
	b.PutUint64(0, 2)
	a.PutUint64(0, 99) // overwrite phase-1 data without flushing

	must(t, dev.Crash())
	p2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if p2.Phase() != 1 {
		t.Errorf("recovered phase = %d", p2.Phase())
	}
	off, _ := p2.Root(0)
	if v := p2.AccessorAt(off, 64).Uint64(0); v != 1 {
		t.Errorf("phase-1 data = %d, want 1 (unflushed overwrite must vanish)", v)
	}
	// The phase-2 allocation is reclaimed: the watermark reverted.
	if p2.Allocated() != off+64 {
		t.Errorf("watermark = %d, want %d", p2.Allocated(), off+64)
	}
}

func TestCheckpointEpochIncrements(t *testing.T) {
	p, _ := newTestPool(t, 1<<16)
	if p.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", p.Epoch())
	}
	must(t, p.Checkpoint(1))
	must(t, p.Checkpoint(2))
	if p.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", p.Epoch())
	}
	if p.Phase() != 2 {
		t.Errorf("phase = %d, want 2", p.Phase())
	}
}

func TestTxCommitDurable(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	a, _ := p.Alloc(128, 8)
	p.SetRoot(0, a.Base())
	must(t, p.Checkpoint(1))

	tx, err := p.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := tx.WriteUint64(a.Base(), 777); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := tx.WriteUint32(a.Base()+8, 888); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	must(t, dev.Crash())
	p2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	off, _ := p2.Root(0)
	acc := p2.AccessorAt(off, 128)
	if v := acc.Uint64(0); v != 777 {
		t.Errorf("committed u64 = %d", v)
	}
	if v := acc.Uint32(8); v != 888 {
		t.Errorf("committed u32 = %d", v)
	}
}

func TestTxCrashBeforeCommitLosesWrites(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	a, _ := p.Alloc(128, 8)
	a.PutUint64(0, 1)
	p.SetRoot(0, a.Base())
	must(t, p.Checkpoint(1))

	tx, _ := p.Begin()
	tx.WriteUint64(a.Base(), 666)
	// No commit: crash now.
	must(t, dev.Crash())
	p2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	off, _ := p2.Root(0)
	if v := p2.AccessorAt(off, 128).Uint64(0); v != 1 {
		t.Errorf("uncommitted tx leaked: %d", v)
	}
}

func TestTxRecoveryReplaysCommittedLog(t *testing.T) {
	// Simulate a crash after the commit point but before the in-place data
	// flush: commit the log header manually, then crash.
	p, dev := newTestPool(t, 1<<20)
	a, _ := p.Alloc(128, 8)
	a.PutUint64(0, 1)
	p.SetRoot(0, a.Base())
	must(t, p.Checkpoint(1))

	tx, _ := p.Begin()
	if err := tx.WriteUint64(a.Base(), 555); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Seal the log exactly as Commit does, then "crash" before data flush.
	n := tx.head - logHeaderSize
	payload := make([]byte, n)
	tx.log.acc.ReadBytes(logHeaderSize, payload)
	tx.log.acc.PutUint32(4, uint32(n))
	tx.log.acc.PutUint32(8, crc32ChecksumIEEE(payload))
	tx.log.acc.PutUint32(12, tx.count)
	tx.log.acc.PutUint32(0, logStateCommitted)
	if err := tx.log.acc.Flush(0, logHeaderSize+n); err != nil {
		t.Fatalf("flush log: %v", err)
	}
	if err := dev.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	must(t, dev.Crash())

	p2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	off, _ := p2.Root(0)
	if v := p2.AccessorAt(off, 128).Uint64(0); v != 555 {
		t.Errorf("redo replay missing: %d, want 555", v)
	}
}

func TestTxUseAfterDone(t *testing.T) {
	p, _ := newTestPool(t, 1<<20)
	a, _ := p.Alloc(16, 8)
	tx, _ := p.Begin()
	tx.WriteUint32(a.Base(), 1)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := tx.WriteUint32(a.Base(), 2); !errors.Is(err, ErrTxDone) {
		t.Errorf("write after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
	tx2, _ := p.Begin()
	if err := tx2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := tx2.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double abort: %v", err)
	}
}

func TestTxLogFull(t *testing.T) {
	p, _ := newTestPool(t, 1<<20)
	a, _ := p.Alloc(8192, 8)
	tx, _ := p.Begin()
	big := make([]byte, 8000) // log cap is 4096
	if err := tx.Write(a.Base(), big); !errors.Is(err, ErrLogFull) {
		t.Errorf("oversize tx write: %v", err)
	}
}

func TestTxWriteAmplification(t *testing.T) {
	// The operation-level strategy must write strictly more bytes to the
	// device than the logical payload — that is the paper's Fig 5b effect.
	p, dev := newTestPool(t, 1<<20)
	a, _ := p.Alloc(4096, 8)
	base := dev.Stats()
	tx, _ := p.Begin()
	payload := make([]byte, 1024)
	tx.Write(a.Base(), payload)
	must(t, tx.Commit())
	if w := dev.Stats().Sub(base).BytesWritten; w < 2*1024 {
		t.Errorf("bytes written = %d, want >= 2x payload (log + in place)", w)
	}
}

func TestQuickPoolAllocDisjoint(t *testing.T) {
	// Property: allocations never overlap and stay in bounds.
	f := func(sizes []uint16) bool {
		p, _ := newTestPool(t, 1<<22)
		type region struct{ off, n int64 }
		var regions []region
		for _, s := range sizes {
			n := int64(s%2048) + 1
			a, err := p.Alloc(n, 8)
			if err != nil {
				return errors.Is(err, ErrOutOfSpace)
			}
			for _, r := range regions {
				if a.Base() < r.off+r.n && r.off < a.Base()+n {
					return false // overlap
				}
			}
			regions = append(regions, region{a.Base(), n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickTxDurability(t *testing.T) {
	// Property: after Commit and Crash, all transaction writes are visible.
	f := func(vals []uint32) bool {
		if len(vals) > 100 {
			vals = vals[:100]
		}
		dev := nvm.New(nvm.KindNVM, 1<<20)
		defer dev.Discard()
		p, err := Create(dev, Options{LogCap: 8192})
		if err != nil {
			return false
		}
		a, err := p.Alloc(int64(len(vals)+1)*4, 8)
		if err != nil {
			return false
		}
		p.SetRoot(0, a.Base())
		must(t, p.Checkpoint(1))
		tx, _ := p.Begin()
		for i, v := range vals {
			if err := tx.WriteUint32(a.Base()+int64(i)*4, v); err != nil {
				return false
			}
		}
		if err := tx.Commit(); err != nil {
			return false
		}
		must(t, dev.Crash())
		p2, err := Open(dev)
		if err != nil {
			return false
		}
		off, _ := p2.Root(0)
		acc := p2.AccessorAt(off, int64(len(vals)+1)*4)
		for i, v := range vals {
			if acc.Uint32(int64(i)*4) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// crc32ChecksumIEEE matches the production checksum.
func crc32ChecksumIEEE(p []byte) uint32 {
	return crc32.ChecksumIEEE(p)
}

func TestTruncateReleasesScratch(t *testing.T) {
	p, _ := newTestPool(t, 1<<16)
	base := p.Allocated()
	p.Alloc(1000, 8)
	mark := p.Allocated()
	p.Alloc(2000, 8)
	if err := p.Truncate(mark); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if p.Allocated() != mark {
		t.Errorf("allocated = %d, want %d", p.Allocated(), mark)
	}
	// Below the reserved region or above the watermark is rejected.
	if err := p.Truncate(base - 1); err == nil {
		t.Error("truncate below reserved region accepted")
	}
	if err := p.Truncate(mark + 10_000); err == nil {
		t.Error("truncate above watermark accepted")
	}
}

// TestCheckpointCoversWhatThePhaseAllocated pins the checkpoint's flush range
// to [lowest watermark since the last checkpoint, watermark): the whole pool
// for the first checkpoint, then only what each phase allocated — through
// truncations above and below the last checkpoint's watermark and across
// Open — and never the older allocations again.
func TestCheckpointCoversWhatThePhaseAllocated(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	// flushed runs one checkpoint and returns the data range it flushed, as
	// the device saw it: offset and length of the flush before the header's.
	phase := uint32(0)
	flushed := func(p *Pool) (bytes int64) {
		t.Helper()
		before := dev.Stats()
		phase++
		must(t, p.Checkpoint(phase))
		d := dev.Stats().Sub(before)
		if d.Flushes != 2 || d.Drains != 2 {
			t.Fatalf("checkpoint %d: %d flushes, %d drains, want data + header of each", phase, d.Flushes, d.Drains)
		}
		return d.FlushedBytes - headerSize
	}
	alloc := func(p *Pool, n int64, fill byte) nvm.Accessor {
		t.Helper()
		a, err := p.Alloc(n, 1)
		must(t, err)
		a.Fill(0, n, fill)
		return a
	}

	base := p.Allocated()
	alloc(p, 1000, 1)
	if got := flushed(p); got != 1000 {
		t.Errorf("first checkpoint flushed %d bytes, want the 1000 allocated since Create", got)
	}
	top1 := p.Allocated()
	b := alloc(p, 500, 2)
	if got := flushed(p); got != 500 {
		t.Errorf("second checkpoint flushed %d bytes, want only the 500 its phase allocated", got)
	}
	if got := flushed(p); got != 0 {
		t.Errorf("checkpoint of a phase that allocated nothing flushed %d bytes", got)
	}
	top2 := p.Allocated()

	// A truncation that stays above the last checkpoint's watermark releases
	// scratch of this phase only: the flush still starts at that watermark.
	alloc(p, 300, 3)
	must(t, p.Truncate(top2+100))
	alloc(p, 50, 4)
	if got := flushed(p); got != 150 {
		t.Errorf("after truncating within the phase: flushed %d bytes, want 150", got)
	}

	// A truncation below it hands older space to this phase: whatever is
	// allocated over it is new data, and the flush starts where it starts.
	must(t, p.Truncate(top1))
	c := alloc(p, 40, 5)
	if c.Base() != b.Base() {
		t.Fatalf("allocation after the truncation at %d, want %d reused", c.Base(), b.Base())
	}
	if got := flushed(p); got != 40 {
		t.Errorf("after truncating below the last checkpoint: flushed %d bytes, want 40", got)
	}
	// Truncating and growing back within one phase keeps the lowest point.
	alloc(p, 30, 6)
	must(t, p.Truncate(base+10))
	alloc(p, 5, 7)
	if got := flushed(p); got != 5 {
		t.Errorf("after truncating to %d: flushed %d bytes, want 5", base+10, got)
	}

	// Open starts from the durable watermark: everything below it is covered.
	must(t, dev.Crash())
	p2, err := Open(dev)
	must(t, err)
	if p2.Allocated() != base+15 {
		t.Fatalf("reopened watermark %d, want %d", p2.Allocated(), base+15)
	}
	d := alloc(p2, 64, 8)
	if got := flushed(p2); got != 64 {
		t.Errorf("first checkpoint after Open flushed %d bytes, want 64", got)
	}
	must(t, dev.Crash())
	var got [64]byte
	d.ReadBytes(0, got[:])
	if !bytes.Equal(got[:], bytes.Repeat([]byte{8}, 64)) {
		t.Error("the phase's allocation did not survive the crash after its checkpoint")
	}
	var old [10]byte
	p2.AccessorAt(base, 10).ReadBytes(0, old[:])
	if !bytes.Equal(old[:], bytes.Repeat([]byte{1}, 10)) {
		t.Error("an older allocation lost its checkpointed bytes")
	}
}

// TestCheckpointLeavesOlderAllocationsToTheirWriter is the other half of the
// contract: bytes written into an allocation an earlier checkpoint covered
// are not made durable by a later one.
func TestCheckpointLeavesOlderAllocationsToTheirWriter(t *testing.T) {
	p, dev := newTestPool(t, 1<<20)
	a, err := p.Alloc(64, 8)
	must(t, err)
	a.PutUint64(0, 1)
	a.PutUint64(8, 1)
	must(t, p.Checkpoint(1))
	a.PutUint64(0, 2) // scratch: no flush
	a.PutUint64(8, 2) // state: the writer flushes it
	must(t, a.Flush(8, 8))
	must(t, p.Checkpoint(2))
	must(t, dev.Crash())
	if v := a.Uint64(0); v != 1 {
		t.Errorf("unflushed write into an older allocation read back %d after the crash, want the checkpointed 1", v)
	}
	if v := a.Uint64(8); v != 2 {
		t.Errorf("write its writer flushed read back %d after the crash, want 2", v)
	}
}
