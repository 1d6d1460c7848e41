package core

import (
	"errors"
	"math"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// logFixture is an operation-level engine with a traversal begun and one
// hash counter allocated (its allocation frame committed), for tests that
// drive the log entry by entry.
type logFixture struct {
	e    *Engine
	opts Options
	tbl  counterTable
	off  int64
	// want mirrors what the committed frames say the table holds.
	want map[uint64]uint64
}

func newLogFixture(t *testing.T, logCap int64) *logFixture {
	t.Helper()
	_, d, g := corpus(t, 63, 2, 120, 20)
	fx := &logFixture{
		opts: Options{Persistence: OpLevel, OpLogCap: logCap},
		want: map[uint64]uint64{},
	}
	fx.e = newEngine(t, g, d, fx.opts)
	if _, err := fx.e.beginTraversal(); err != nil {
		t.Fatalf("beginTraversal: %v", err)
	}
	var err error
	// Key space 0: a hash table, whatever the dictionary size.
	if fx.tbl, fx.off, err = fx.e.newCounter(64, 0); err != nil {
		t.Fatalf("newCounter: %v", err)
	}
	if err := fx.e.opCommit(); err != nil {
		t.Fatalf("commit of the allocation: %v", err)
	}
	return fx
}

// add performs one mutation; the caller commits.
func (fx *logFixture) add(t *testing.T, key, delta uint64) {
	t.Helper()
	if err := fx.e.addCount(fx.tbl, fx.off, key, delta); err != nil {
		t.Fatalf("addCount(%d, %d): %v", key, delta, err)
	}
}

// padded performs one mutation whose log entry — after the frame's first,
// whose tag carries the table's offset — is exactly n bytes (3 ≤ n ≤ 11): a
// zero tag (same table), a one-byte key, and a delta whose varint fills the
// rest.
func (fx *logFixture) padded(t *testing.T, n int) (key, delta uint64) {
	t.Helper()
	key, delta = 7, uint64(1)<<(7*(n-3))
	fx.add(t, key, delta)
	return key, delta
}

// recovered crashes the device, reopens it and returns the recovery report
// with the fixture table's contents.
func (fx *logFixture) recovered(t *testing.T) (*RecoveryInfo, map[uint64]uint64) {
	t.Helper()
	if err := fx.e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(fx.e.dev, fx.e.d, fx.opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	tbl, err := pstruct.OpenCounterAt(re.pool, fx.off)
	if err != nil {
		t.Fatalf("OpenCounterAt: %v", err)
	}
	got := map[uint64]uint64{}
	tbl.Range(func(k, v uint64) bool { got[k] = v; return true })
	return info, got
}

func equalCounts(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestOpLogFrameEdges walks the frame format's edges: a frame that ends on
// the log's last byte, an operation sealed in parts at half the log, entries
// for growable tables (negative offsets) between real ones, the largest key
// and delta, and allocation entries recovery must refuse.
func TestOpLogFrameEdges(t *testing.T) {
	t.Run("frame exactly fills the log", func(t *testing.T) {
		fx := newLogFixture(t, 512)
		l := fx.e.oplog
		frames := int64(1) // the allocation's
		// Small frames until what is left is a frame's worth below the
		// early-seal threshold.
		for l.acc.Size()-l.head > int64(l.maxPayload) {
			k, d := fx.padded(t, 3)
			fx.want[k] += d
			if err := fx.e.opCommit(); err != nil {
				t.Fatal(err)
			}
			frames++
		}
		// One operation whose frame and terminator end on the last byte.  Its
		// first entry carries the table's offset in its tag; the sizes of the
		// rest are exact.
		k, d := fx.padded(t, 3)
		fx.want[k] += d
		room := int(l.acc.Size()-l.head) - frameEnd - len(l.stage)
		for room > 0 {
			n := min(room, 11)
			if room-n > 0 && room-n < 3 {
				n = room - 3
			}
			k, d := fx.padded(t, n)
			fx.want[k] += d
			room -= n
		}
		if err := fx.e.opCommit(); err != nil {
			t.Fatal(err)
		}
		frames++
		if l.head+frameEnd != l.acc.Size() || l.compactions != 0 {
			t.Fatalf("head %d of %d after the filling frame, %d compactions: want the log exactly full, none",
				l.head, l.acc.Size(), l.compactions)
		}
		info, got := fx.recovered(t)
		if info.Replayed != frames || !equalCounts(got, fx.want) {
			t.Errorf("replayed %d frames to %v, want %d to %v", info.Replayed, got, frames, fx.want)
		}
	})

	t.Run("no room for one more byte compacts instead", func(t *testing.T) {
		fx := newLogFixture(t, 512)
		l := fx.e.oplog
		for l.compactions == 0 {
			k, d := fx.padded(t, 3)
			fx.want[k] += d
			if err := fx.e.opCommit(); err != nil {
				t.Fatal(err)
			}
		}
		// The frame that did not fit was dropped, not re-logged: its effect is
		// in the table the compaction flushed.
		if l.head != opLogHeader {
			t.Fatalf("head %d after the compacting commit, want an empty log", l.head)
		}
		info, got := fx.recovered(t)
		if info.Replayed != 0 || !equalCounts(got, fx.want) {
			t.Errorf("replayed %d frames to %v, want 0 to %v", info.Replayed, got, fx.want)
		}
	})

	t.Run("operation split at half the log", func(t *testing.T) {
		fx := newLogFixture(t, 512)
		l := fx.e.oplog
		head, sealed := l.head, map[uint64]uint64{}
		// One operation, never committed by the caller, larger than half the
		// log: the part staged when the threshold is reached is sealed.
		for i := 0; l.head == head; i++ {
			if i > 512 {
				t.Fatal("no early seal")
			}
			k, d := fx.padded(t, 3)
			sealed[k] += d
		}
		if l.compactions != 0 || len(l.stage) != frameHeader {
			t.Fatalf("early seal compacted %d times and left %d staged bytes", l.compactions, len(l.stage)-frameHeader)
		}
		if got := l.head - head; got < int64(l.maxPayload) || got > l.acc.Size()/2+frameHeader {
			t.Errorf("sealed part is %d bytes, want about half of %d", got, l.acc.Size())
		}
		fx.padded(t, 3) // the rest of the operation: staged, lost with the crash
		info, got := fx.recovered(t)
		if info.Replayed != 2 || !equalCounts(got, sealed) {
			t.Errorf("replayed %d frames to %v, want 2 (allocation, sealed part) to %v", info.Replayed, got, sealed)
		}
	})

	t.Run("growable offsets and extreme values", func(t *testing.T) {
		fx := newLogFixture(t, 512)
		// Entries for a growable table (offset -1: logged, never replayed)
		// on both sides of real ones, so the offset delta goes negative and
		// positive; and the largest key and delta a counter can be given.
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(fx.e.oplog.append(fx.e, -1, 3, 9))
		fx.add(t, math.MaxUint64, math.MaxUint64)
		must(fx.e.oplog.append(fx.e, -1, math.MaxUint64, 1))
		fx.add(t, math.MaxUint64, 2)
		fx.add(t, 0, math.MaxUint64)
		must(fx.e.opCommit())
		fx.want[math.MaxUint64] = 1 // MaxUint64 + 2 wraps
		fx.want[0] = math.MaxUint64
		info, got := fx.recovered(t)
		if info.Replayed != 2 || !equalCounts(got, fx.want) {
			t.Errorf("replayed %d frames to %v, want 2 to %v", info.Replayed, got, fx.want)
		}
	})

	// A frame can be valid and still ask for memory the pool does not have —
	// after a bug, or a CRC collision on a torn frame.  Recovery refuses.
	for _, tc := range []struct {
		name   string
		off    func(fx *logFixture) int64
		header uint64
	}{
		{"allocation larger than the pool", func(fx *logFixture) int64 { return fx.off }, 1 << 40},
		{"dense allocation larger than the pool", func(fx *logFixture) int64 { return fx.off }, 1<<62 | 1<<40},
		{"allocation of no counter shape", func(fx *logFixture) int64 { return fx.off }, 24},
		{"allocation straddling the pool's end", func(fx *logFixture) int64 { return fx.e.pool.Size() - 64 }, 64},
		{"allocation beyond the pool", func(fx *logFixture) int64 { return fx.e.pool.Size() + 4096 }, 64},
		{"allocation at offset zero", func(fx *logFixture) int64 { return 0 }, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newLogFixture(t, 512)
			if err := fx.e.oplog.appendAlloc(fx.e, tc.off(fx), tc.header); err != nil {
				t.Fatal(err)
			}
			if err := fx.e.opCommit(); err != nil {
				t.Fatal(err)
			}
			if err := fx.e.dev.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			if _, _, err := Reopen(fx.e.dev, fx.e.d, fx.opts); !errors.Is(err, ErrNeedsReload) {
				t.Errorf("Reopen: %v, want ErrNeedsReload", err)
			}
		})
	}

	t.Run("update beyond the pool", func(t *testing.T) {
		fx := newLogFixture(t, 512)
		if err := fx.e.oplog.append(fx.e, fx.e.pool.Size()-8, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := fx.e.opCommit(); err != nil {
			t.Fatal(err)
		}
		if err := fx.e.dev.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if _, _, err := Reopen(fx.e.dev, fx.e.d, fx.opts); !errors.Is(err, ErrNeedsReload) {
			t.Errorf("Reopen: %v, want ErrNeedsReload", err)
		}
	})
}

// TestOpLogTooSmall: a log that cannot hold one frame is refused at build
// time, not discovered by a traversal.
func TestOpLogTooSmall(t *testing.T) {
	_, d, g := corpus(t, 63, 2, 120, 20)
	if _, err := New(g, d, Options{Persistence: OpLevel, OpLogCap: opLogMin - 1}); err == nil {
		t.Error("New accepted an operation log smaller than one frame")
	}
	e, err := New(g, d, Options{Persistence: OpLevel, OpLogCap: opLogMin})
	if err != nil {
		t.Fatalf("New with the smallest log: %v", err)
	}
	e.Close()
}

// TestStageCountsAsDRAM: the stage is DRAM the engine holds, so §VI-C's
// number includes it, and the early seal keeps it to half the log it feeds.
// Word count drives it: only a global counter is logged.
func TestStageCountsAsDRAM(t *testing.T) {
	_, d, g := corpus(t, 64, 3, 300, 30)
	const logCap = 512
	phase := newEngine(t, g, d, Options{})
	op := newEngine(t, g, d, Options{Persistence: OpLevel, OpLogCap: logCap})
	base := op.DRAMBytes() - phase.DRAMBytes()
	if _, err := analytics.WordCount(op); err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	grown := op.DRAMBytes() - phase.DRAMBytes()
	if base <= 0 || grown <= base {
		t.Errorf("stage DRAM %d before the run, %d after: want counted, and grown with the run", base, grown)
	}
	if grown > logCap/2+maxEntry+frameEnd {
		t.Errorf("stage grew to %d bytes feeding a %d-byte log, want at most half of it and an entry", grown, logCap)
	}
	if n := op.PersistCounts().Compactions; n == 0 {
		t.Error("run never filled the log: the bound was not exercised")
	}
}
