package nvm

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// must fails the test on a persistence-path error; used where the call's
// effect, not its error, is under test.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindDRAM: "DRAM", KindNVM: "NVM", KindSSD: "SSD", KindHDD: "HDD",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestKindPersistent(t *testing.T) {
	if KindDRAM.Persistent() {
		t.Error("DRAM must not be persistent")
	}
	for _, k := range []Kind{KindNVM, KindSSD, KindHDD} {
		if !k.Persistent() {
			t.Errorf("%v must be persistent", k)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindDRAM, KindNVM, KindSSD, KindHDD} {
		t.Run(k.String(), func(t *testing.T) {
			d := New(k, 4096)
			defer d.Discard()
			want := []byte("hello, persistent world")
			if _, err := d.WriteAt(want, 100); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			got := make([]byte, len(want))
			if _, err := d.ReadAt(got, 100); err != nil {
				t.Fatalf("ReadAt: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read back %q, want %q", got, want)
			}
		})
	}
}

func TestOutOfRange(t *testing.T) {
	d := New(KindNVM, 1024)
	defer d.Discard()
	buf := make([]byte, 16)
	if _, err := d.ReadAt(buf, 1020); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.WriteAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset: err = %v, want ErrOutOfRange", err)
	}
	if err := d.Flush(1000, 100); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("flush past end: err = %v, want ErrOutOfRange", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	buf := make([]byte, 256)
	d.WriteAt(buf, 0)
	d.ReadAt(buf, 0)
	must(t, d.Flush(0, 256))
	must(t, d.Drain())
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Flushes != 1 || s.Drains != 1 {
		t.Errorf("counters = %+v", s)
	}
	if s.BytesRead != 256 || s.BytesWritten != 256 || s.FlushedBytes != 256 {
		t.Errorf("byte counters = %+v", s)
	}
	if s.ModeledNanos <= 0 {
		t.Error("modeled time did not accumulate")
	}
	d.ResetStats()
	if got := d.Stats(); got != (Stats{}) {
		t.Errorf("after reset, stats = %+v", got)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Reads: 5, ModeledNanos: 100, Seeks: 2}
	b := Stats{Reads: 3, ModeledNanos: 40, Seeks: 1}
	sum := a.Add(b)
	if sum.Reads != 8 || sum.ModeledNanos != 140 || sum.Seeks != 3 {
		t.Errorf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

// TestStatsAddSubCoverEveryField: a counter added to Stats must be summed and
// subtracted too, or interval deltas silently drop it.
func TestStatsAddSubCoverEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(100 + i))
		bv.Field(i).SetInt(int64(3 * (i + 1)))
	}
	sum := a.Add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(100+i+3*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

// TestFlushedGranulesIsWhatFlushCharges: a flush costs every media granule
// its range touches, however few of the granule's bytes it covers, and
// FlushedGranules counts exactly those.
func TestFlushedGranulesIsWhatFlushCharges(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	g := d.Model().Granule
	for _, tc := range []struct{ off, n, want int64 }{
		{0, 34, 1},          // a small commit record: one whole granule
		{g - 4, 8, 2},       // eight bytes across a boundary: two
		{g, g, 1},           // exactly one granule
		{g + 1, 2 * g, 3},   // two granules' worth, unaligned: three
		{3 * g, 0, 0},       // nothing
		{0, 4096, 4096 / g}, // the whole device
	} {
		before := d.Stats()
		must(t, d.Flush(tc.off, tc.n))
		got := d.Stats().Sub(before)
		if got.FlushedGranules != tc.want || got.FlushedBytes != tc.n {
			t.Errorf("Flush(%d, %d): %d granules, %d bytes, want %d, %d",
				tc.off, tc.n, got.FlushedGranules, got.FlushedBytes, tc.want, tc.n)
		}
		if got.ModeledNanos != tc.want*d.Model().FlushNanos {
			t.Errorf("Flush(%d, %d) charged %d ns for %d granules at %d ns each",
				tc.off, tc.n, got.ModeledNanos, tc.want, d.Model().FlushNanos)
		}
	}
}

func TestModeledCostReflectsLocality(t *testing.T) {
	// Sequential access over a range must cost no more than random access
	// over the same number of bytes, because the device cache and granule
	// batching reward locality.
	const size = 1 << 20
	seq := New(KindNVM, size)
	rnd := New(KindNVM, size)
	defer seq.Discard()
	defer rnd.Discard()

	buf := make([]byte, 8)
	for off := int64(0); off < size; off += 8 {
		seq.ReadAt(buf, off)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < size/8; i++ {
		rnd.ReadAt(buf, int64(r.Intn(size-8)))
	}
	sc, rc := seq.Stats().ModeledNanos, rnd.Stats().ModeledNanos
	if sc >= rc {
		t.Errorf("sequential cost %d >= random cost %d; locality not modeled", sc, rc)
	}
}

func TestMediaCostOrdering(t *testing.T) {
	// For the same random access pattern, DRAM < NVM < SSD < HDD.
	pattern := func(d Device) int64 {
		r := rand.New(rand.NewSource(7))
		buf := make([]byte, 64)
		for i := 0; i < 2000; i++ {
			d.ReadAt(buf, int64(r.Intn(1<<20-64)))
		}
		return d.Stats().ModeledNanos
	}
	costs := make(map[Kind]int64)
	for _, k := range []Kind{KindDRAM, KindNVM, KindSSD, KindHDD} {
		d := NewWithModel(k, 1<<20, ModelFor(k).WithCacheBytes(32<<10))
		costs[k] = pattern(d)
		d.Discard()
	}
	if !(costs[KindDRAM] < costs[KindNVM] && costs[KindNVM] < costs[KindSSD] && costs[KindSSD] < costs[KindHDD]) {
		t.Errorf("cost ordering violated: %v", costs)
	}
}

func TestHDDSeekPenalty(t *testing.T) {
	// Random block access on HDD must record seeks; sequential must not
	// (beyond the first).
	d := NewWithModel(KindHDD, 1<<20, HDDModel.WithoutCache())
	defer d.Discard()
	buf := make([]byte, 4096)
	for off := int64(0); off < 1<<20; off += 4096 {
		d.ReadAt(buf, off)
	}
	seqSeeks := d.Stats().Seeks
	if seqSeeks > 1 {
		t.Errorf("sequential scan recorded %d seeks", seqSeeks)
	}
	d.ResetStats()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		d.ReadAt(buf, int64(r.Intn(200))*4096)
	}
	if s := d.Stats().Seeks; s < 50 {
		t.Errorf("random access recorded only %d seeks", s)
	}
}

func TestCrashDropsUnflushedWrites(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	durable := []byte("durable")
	volatileOnly := []byte("vanish")
	d.WriteAt(durable, 0)
	if err := d.Flush(0, int64(len(durable))); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	d.WriteAt(volatileOnly, 512) // never flushed

	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	got := make([]byte, len(durable))
	d.ReadAt(got, 0)
	if !bytes.Equal(got, durable) {
		t.Errorf("durable data lost: %q", got)
	}
	got2 := make([]byte, len(volatileOnly))
	d.ReadAt(got2, 512)
	if !bytes.Equal(got2, make([]byte, len(volatileOnly))) {
		t.Errorf("unflushed write survived crash: %q", got2)
	}
}

func TestCrashOnDRAMZeroes(t *testing.T) {
	d := New(KindDRAM, 1024)
	defer d.Discard()
	d.WriteAt([]byte("gone"), 0)
	must(t, d.Flush(0, 4)) // no-op on DRAM
	must(t, d.Drain())
	must(t, d.Crash())
	got := make([]byte, 4)
	d.ReadAt(got, 0)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("DRAM survived crash: %q", got)
	}
}

func TestFailPoint(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	d.WriteAt([]byte("abc"), 0)
	d.FailAfterFlushes(1)
	if err := d.Flush(0, 3); err != nil {
		t.Fatalf("first flush should pass: %v", err)
	}
	if err := d.Flush(0, 3); !errors.Is(err, ErrFailPoint) {
		t.Fatalf("second flush should fail: %v", err)
	}
	d.DisarmFailPoint()
	if err := d.Flush(0, 3); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestFileBackedDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.nvm")
	d, err := Open(KindNVM, path, 8192)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte("survives process restart")
	d.WriteAt(payload, 256)
	if err := d.Flush(256, int64(len(payload))); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := d.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}

	d2, err := Open(KindNVM, path, 0) // size comes from the file
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Discard()
	if d2.Size() != 8192 {
		t.Errorf("reopened size = %d", d2.Size())
	}
	got := make([]byte, len(payload))
	d2.ReadAt(got, 256)
	if !bytes.Equal(got, payload) {
		t.Errorf("read back %q", got)
	}
}

func TestOpenRejectsDRAM(t *testing.T) {
	if _, err := Open(KindDRAM, filepath.Join(t.TempDir(), "x"), 1024); err == nil {
		t.Error("file-backed DRAM should be rejected")
	}
}

func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	d := New(KindNVM, 1024)
	defer d.Discard()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	d.WriteAt([]byte("x"), 0) // volatile write still works (no store access)
	if err := d.Flush(0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close: %v", err)
	}
	if err := d.Crash(); !errors.Is(err, ErrClosed) {
		t.Errorf("crash after close: %v", err)
	}
}

func TestGranules(t *testing.T) {
	cases := []struct{ off, n, g, want int64 }{
		{0, 0, 256, 0},
		{0, 1, 256, 1},
		{0, 256, 256, 1},
		{0, 257, 256, 2},
		{255, 2, 256, 2},
		{256, 256, 256, 1},
		{100, 1000, 256, 5},
	}
	for _, c := range cases {
		if got := granules(c.off, c.n, c.g); got != c.want {
			t.Errorf("granules(%d,%d,%d) = %d, want %d", c.off, c.n, c.g, got, c.want)
		}
	}
}

// Property: any sequence of writes followed by reads behaves like a plain
// byte array, regardless of medium.
func TestQuickDeviceIsAByteArray(t *testing.T) {
	const size = 1 << 14
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		d := New(KindNVM, size)
		defer d.Discard()
		shadow := make([]byte, size)
		for _, op := range ops {
			off := int64(op.Off) % (size / 2)
			data := op.Data
			if len(data) > 4096 {
				data = data[:4096]
			}
			if _, err := d.WriteAt(data, off); err != nil {
				return false
			}
			copy(shadow[off:], data)
		}
		got := make([]byte, size)
		if _, err := d.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: crash recovery never yields data that was neither durable
// nor zero.
func TestQuickCrashConsistency(t *testing.T) {
	const size = 1 << 12
	f := func(flushUpTo uint8, fill byte) bool {
		if fill == 0 {
			fill = 1
		}
		d := New(KindNVM, size)
		defer d.Discard()
		data := bytes.Repeat([]byte{fill}, size)
		d.WriteAt(data, 0)
		n := int64(flushUpTo) * 16
		if n > size {
			n = size
		}
		must(t, d.Flush(0, n))
		must(t, d.Drain())
		must(t, d.Crash())
		got := make([]byte, size)
		d.ReadAt(got, 0)
		for i := int64(0); i < size; i++ {
			want := byte(0)
			if i < n {
				want = fill
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The counters are the last fields a lane writes on every access; a full
// cache line must separate them from whatever the allocator places next
// (see the padding comment in SimDevice).
func TestSimDeviceCountersEndInPadding(t *testing.T) {
	var d SimDevice
	end := unsafe.Offsetof(d.counters) + unsafe.Sizeof(d.counters)
	if pad := unsafe.Sizeof(d) - end; pad < 64 {
		t.Fatalf("%d bytes follow SimDevice's counters, want at least a 64-byte cache line", pad)
	}
}
