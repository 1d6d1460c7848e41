package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// walkFrames is the fuzz target's own reading of the log format, written
// against the layout alone (no opLog code): it returns how many frames a
// recovery may admit — each one, taken alone, carries the log's epoch, a
// length that leaves room for its terminator, and a CRC that matches — and
// the offset of the first that does not.
func walkFrames(log nvm.Accessor, poolEpoch uint32) (n int64, at int) {
	at = 8
	if log.Uint32(4) != poolEpoch {
		return 0, at
	}
	raw := make([]byte, log.Size())
	log.ReadBytes(0, raw)
	epoch := binary.LittleEndian.Uint32(raw)
	for ; at+16 <= len(raw); n++ {
		size := int(binary.LittleEndian.Uint32(raw[at+4:]))
		if binary.LittleEndian.Uint32(raw[at:]) != epoch || size == 0 || size > len(raw)-at-16 {
			break
		}
		sum := crc32.NewIEEE()
		sum.Write(raw[at : at+8])
		sum.Write(raw[at+12 : at+12+size])
		if binary.LittleEndian.Uint32(raw[at+8:]) != sum.Sum32() {
			break
		}
		at += 12 + size
	}
	return n, at
}

// FuzzOpLogRecovery mutates bytes inside the durable operation-log region and
// checks the recovery contract under arbitrary corruption: replay must never
// admit a frame whose epoch, length or CRC does not validate, and Reopen must
// never panic nor replay past the first invalid frame — it either recovers
// or returns ErrNeedsReload.
//
// The input is a sequence of 3-byte patches (offset uint16 LE modulo the log
// capacity, xor byte) applied to the log region of a crashed mid-traversal
// image that holds committed, replayable frames.
func FuzzOpLogRecovery(f *testing.F) {
	_, d, g := corpus(f, 60, 2, 200, 25)
	opts := Options{Persistence: OpLevel, OpLogCap: 4096}
	e := newEngine(f, g, d, opts)

	// Run a traversal far enough that the log holds committed frames, then
	// crash: the durable image is the fuzz baseline.
	if _, err := e.beginTraversal(); err != nil {
		f.Fatalf("beginTraversal: %v", err)
	}
	counter, off, err := e.newCounter(e.globalBound(), int64(e.numWords))
	if err != nil {
		f.Fatalf("newCounter: %v", err)
	}
	if err := e.topDownGlobal(counter, off); err != nil {
		f.Fatalf("topDownGlobal: %v", err)
	}
	if err := e.dev.Crash(); err != nil {
		f.Fatalf("Crash: %v", err)
	}
	base := e.dev

	// Locate the log region and confirm the baseline actually replays.
	probe, err := base.CloneDurable()
	if err != nil {
		f.Fatalf("CloneDurable: %v", err)
	}
	p0, err := pmem.Open(probe)
	if err != nil {
		f.Fatalf("Open baseline: %v", err)
	}
	logOff, err := p0.Root(rootOpLog)
	if err != nil || logOff == 0 {
		f.Fatalf("op-log root = %d, %v", logOff, err)
	}
	frames, end := walkFrames(p0.AccessorAt(logOff, opts.OpLogCap), p0.Epoch())
	if _, info, err := Reopen(probe, d, opts); err != nil || info.Replayed == 0 || info.Replayed != frames {
		f.Fatalf("baseline Reopen replayed %+v of %d frames, err %v", info, frames, err)
	}
	if err := probe.Discard(); err != nil {
		f.Fatalf("Discard: %v", err)
	}

	// The first frame starts at 8: epoch 8–11, payload bytes 12–15, CRC
	// 16–19, payload from 20 — an allocation entry first (tag 20–22, the
	// dense table's header word 23–31), then the root's updates, three
	// bytes each.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff})    // log epoch header byte
	f.Add([]byte{4, 0, 0xff})    // pool-epoch header byte
	f.Add([]byte{8, 0, 0x01})    // frame 0 epoch byte
	f.Add([]byte{12, 0, 0x01})   // frame 0 length, one longer
	f.Add([]byte{13, 0, 0x40})   // frame 0 length past the region
	f.Add([]byte{16, 0, 0xff})   // frame 0 CRC byte
	f.Add([]byte{22, 0, 0x80})   // the tag's last byte gains a continuation bit
	f.Add([]byte{20, 0, 0x01})   // the allocation entry becomes an update
	f.Add([]byte{23, 0, 0x04})   // the allocation entry's header word
	f.Add([]byte{34, 0, 0x01})   // the first update's delta
	f.Add([]byte{255, 15, 0x5a}) // last byte of the region
	f.Add([]byte{40, 0, 0x02, 4, 0, 0x10, 255, 255, 0xaa})
	// The terminator after the last frame becomes the log's epoch.
	f.Add([]byte{byte(end), byte(end >> 8), byte(e.oplog.epoch)})

	f.Fuzz(func(t *testing.T, patch []byte) {
		dev, err := base.CloneDurable()
		if err != nil {
			t.Fatalf("CloneDurable: %v", err)
		}
		defer func() {
			if err := dev.Discard(); err != nil {
				t.Errorf("Discard: %v", err)
			}
		}()
		for i := 0; i+3 <= len(patch); i += 3 {
			at := logOff + int64(binary.LittleEndian.Uint16(patch[i:]))%opts.OpLogCap
			var b [1]byte
			if _, err := dev.ReadAt(b[:], at); err != nil {
				t.Fatalf("ReadAt(%d): %v", at, err)
			}
			b[0] ^= patch[i+2]
			if _, err := dev.WriteAt(b[:], at); err != nil {
				t.Fatalf("WriteAt(%d): %v", at, err)
			}
		}

		// Independent admission check: what the format says may replay.
		pool, err := pmem.Open(dev)
		if err != nil {
			t.Fatalf("Open after log-only mutation: %v", err) // header untouched
		}
		n, _ := walkFrames(pool.AccessorAt(logOff, opts.OpLogCap), pool.Epoch())

		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Reopen panicked on corrupt op log: %v", r)
			}
		}()
		re, info, err := Reopen(dev, d, opts)
		if err != nil {
			if !errors.Is(err, ErrNeedsReload) {
				t.Fatalf("Reopen: %v (want nil or ErrNeedsReload)", err)
			}
			return
		}
		if info.Replayed != n {
			t.Fatalf("replayed %d frames, %d validate", info.Replayed, n)
		}
		if _, err := re.ReplayedCounts(); err != nil {
			t.Fatalf("ReplayedCounts after recovery: %v", err)
		}
	})
}
