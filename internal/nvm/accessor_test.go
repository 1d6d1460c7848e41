package nvm

import (
	"testing"
	"testing/quick"
)

func TestAccessorTypedRoundTrip(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	a := NewAccessor(d, 128, 1024)

	a.PutUint32(0, 0xdeadbeef)
	if got := a.Uint32(0); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	a.PutUint64(8, 0x0123456789abcdef)
	if got := a.Uint64(8); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	a.PutByte(16, 0x7f)
	if got := a.Byte(16); got != 0x7f {
		t.Errorf("Byte = %#x", got)
	}
}

func TestAccessorSlice(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	a := NewAccessor(d, 0, 4096)
	sub := a.Slice(100, 200)
	if sub.Base() != 100 || sub.Size() != 200 {
		t.Errorf("slice base/size = %d/%d", sub.Base(), sub.Size())
	}
	sub.PutUint32(0, 42)
	if got := a.Uint32(100); got != 42 {
		t.Errorf("write through slice not visible at parent offset: %d", got)
	}
}

func TestAccessorBulkUint32s(t *testing.T) {
	d := New(KindNVM, 4096)
	defer d.Discard()
	a := NewAccessor(d, 0, 4096)
	src := []uint32{1, 2, 3, 1 << 30, 0xffffffff}
	a.PutUint32s(64, src)
	dst := make([]uint32, len(src))
	a.Uint32s(64, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestAccessorPanicsOutOfRange(t *testing.T) {
	d := New(KindNVM, 1024)
	defer d.Discard()
	a := NewAccessor(d, 0, 64)
	assertPanics(t, "read past region", func() { a.Uint64(60) })
	assertPanics(t, "write past region", func() { a.PutUint32(62, 1) })
	assertPanics(t, "bad slice", func() { a.Slice(32, 64) })
	assertPanics(t, "bad accessor", func() { NewAccessor(d, 1000, 100) })
}

func TestAccessorFlush(t *testing.T) {
	d := New(KindNVM, 1024)
	defer d.Discard()
	a := NewAccessor(d, 256, 256)
	a.PutUint64(0, 99)
	if err := a.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	must(t, d.Crash())
	if got := a.Uint64(0); got != 99 {
		t.Errorf("after crash, value = %d", got)
	}
}

func TestQuickAccessorUint32s(t *testing.T) {
	d := New(KindNVM, 1<<16)
	defer d.Discard()
	a := NewAccessor(d, 0, 1<<16)
	f := func(vals []uint32, offSeed uint16) bool {
		if len(vals) > 1000 {
			vals = vals[:1000]
		}
		off := int64(offSeed) % (1 << 15)
		a.PutUint32s(off, vals)
		got := make([]uint32, len(vals))
		a.Uint32s(off, got)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
