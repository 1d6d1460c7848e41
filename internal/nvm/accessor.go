package nvm

import "encoding/binary"

// Accessor provides typed little-endian access to a device region.  It is the
// load/store layer every higher-level structure (pools, vectors, hash tables)
// goes through, so all of their traffic is visible to the cost model.
//
// Accessor methods panic on out-of-range access: region bounds are computed
// by allocators, so a violation is a program bug, not an I/O condition —
// the same stance the standard library takes for slice indexing.
//
// When the device is the built-in simulator (the only implementation in this
// repository), every operation takes a direct fast path: the region bounds
// are validated once here — the accessor's region is a subrange of the
// device by construction, so the device's own range check is redundant — and
// bytes are decoded and encoded straight against the simulator's volatile
// image, with no intermediate buffer.  Charging is identical to the
// ReadAt/WriteAt path; only host-side work differs.
type Accessor struct {
	dev  Device
	sim  *SimDevice // non-nil when dev is the built-in simulator
	base int64
	size int64
}

// NewAccessor returns an accessor for the n bytes of dev starting at base.
func NewAccessor(dev Device, base, n int64) Accessor {
	if base < 0 || n < 0 || base+n > dev.Size() {
		panic("nvm: accessor out of device range")
	}
	sim, _ := dev.(*SimDevice)
	return Accessor{dev: dev, sim: sim, base: base, size: n}
}

// Device returns the underlying device.
func (a Accessor) Device() Device { return a.dev }

// Base returns the region's absolute device offset.
func (a Accessor) Base() int64 { return a.base }

// Size returns the region length in bytes.
func (a Accessor) Size() int64 { return a.size }

// Slice returns an accessor for the sub-region [off, off+n).
func (a Accessor) Slice(off, n int64) Accessor {
	if off < 0 || n < 0 || off+n > a.size {
		panic("nvm: slice out of region range")
	}
	return Accessor{dev: a.dev, sim: a.sim, base: a.base + off, size: n}
}

func (a Accessor) must(err error) {
	if err != nil {
		panic("nvm: " + err.Error())
	}
}

// ReadBytes copies len(p) bytes at region offset off into p.
func (a Accessor) ReadBytes(off int64, p []byte) {
	n := int64(len(p))
	a.check(off, n)
	if a.sim != nil {
		copy(p, a.sim.accessRead(a.base+off, n))
		return
	}
	_, err := a.dev.ReadAt(p, a.base+off)
	a.must(err)
}

// WriteBytes copies p to region offset off.
func (a Accessor) WriteBytes(off int64, p []byte) {
	n := int64(len(p))
	a.check(off, n)
	if a.sim != nil {
		copy(a.sim.accessWrite(a.base+off, n), p)
		return
	}
	_, err := a.dev.WriteAt(p, a.base+off)
	a.must(err)
}

// ReadView charges a read of [off, off+n) and returns the bytes with zero
// copy when the device is the simulator (a freshly copied buffer otherwise).
// The view aliases device memory: it is valid only until the next write to
// the device, or until the device crashes or is discarded — the image may be
// unmapped then, and reading the view would fault — and must not be mutated.
// Scans that only inspect bytes (hash table status runs, token streams) use
// it to avoid staging buffers.
func (a Accessor) ReadView(off, n int64) []byte {
	a.check(off, n)
	if a.sim != nil {
		return a.sim.accessRead(a.base+off, n)
	}
	p := make([]byte, n)
	_, err := a.dev.ReadAt(p, a.base+off)
	a.must(err)
	return p
}

// Uint32 reads a little-endian uint32 at off.
func (a Accessor) Uint32(off int64) uint32 {
	if a.sim != nil {
		a.check(off, 4)
		return binary.LittleEndian.Uint32(a.sim.accessRead(a.base+off, 4))
	}
	var b [4]byte
	a.ReadBytes(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// PutUint32 writes v at off.
func (a Accessor) PutUint32(off int64, v uint32) {
	if a.sim != nil {
		a.check(off, 4)
		binary.LittleEndian.PutUint32(a.sim.accessWrite(a.base+off, 4), v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	a.WriteBytes(off, b[:])
}

// Uint64 reads a little-endian uint64 at off.
func (a Accessor) Uint64(off int64) uint64 {
	if a.sim != nil {
		a.check(off, 8)
		return binary.LittleEndian.Uint64(a.sim.accessRead(a.base+off, 8))
	}
	var b [8]byte
	a.ReadBytes(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// PutUint64 writes v at off.
func (a Accessor) PutUint64(off int64, v uint64) {
	if a.sim != nil {
		a.check(off, 8)
		binary.LittleEndian.PutUint64(a.sim.accessWrite(a.base+off, 8), v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.WriteBytes(off, b[:])
}

// Byte reads the byte at off.
func (a Accessor) Byte(off int64) byte {
	if a.sim != nil {
		a.check(off, 1)
		return a.sim.accessRead(a.base+off, 1)[0]
	}
	var b [1]byte
	a.ReadBytes(off, b[:])
	return b[0]
}

// PutByte writes v at off.
func (a Accessor) PutByte(off int64, v byte) {
	if a.sim != nil {
		a.check(off, 1)
		a.sim.accessWrite(a.base+off, 1)[0] = v
		return
	}
	b := [1]byte{v}
	a.WriteBytes(off, b[:])
}

// ReadU32s reads len(dst) little-endian uint32 values starting at off in one
// device read — charge-identical to ReadBytes over the same range, so
// sequential layouts pay sequential cost.
func (a Accessor) ReadU32s(off int64, dst []uint32) {
	n := int64(len(dst)) * 4
	a.check(off, n)
	if a.sim != nil {
		src := a.sim.accessRead(a.base+off, n)
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[i*4:])
		}
		return
	}
	buf := make([]byte, n)
	_, err := a.dev.ReadAt(buf, a.base+off)
	a.must(err)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
}

// WriteU32s writes src as consecutive little-endian uint32 values at off in
// one device write — charge-identical to WriteBytes over the same range.
func (a Accessor) WriteU32s(off int64, src []uint32) {
	n := int64(len(src)) * 4
	a.check(off, n)
	if a.sim != nil {
		dst := a.sim.accessWrite(a.base+off, n)
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[i*4:], v)
		}
		return
	}
	buf := make([]byte, n)
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[i*4:], v)
	}
	_, err := a.dev.WriteAt(buf, a.base+off)
	a.must(err)
}

// ReadU64s reads len(dst) little-endian uint64 values starting at off in one
// device read — charge-identical to ReadBytes over the same range.
func (a Accessor) ReadU64s(off int64, dst []uint64) {
	n := int64(len(dst)) * 8
	a.check(off, n)
	if a.sim != nil {
		src := a.sim.accessRead(a.base+off, n)
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(src[i*8:])
		}
		return
	}
	buf := make([]byte, n)
	_, err := a.dev.ReadAt(buf, a.base+off)
	a.must(err)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
}

// Fill writes n copies of v at off in one device write — charge-identical to
// WriteBytes of an n-byte buffer.  Zeroing loops (pool allocation, table
// resets) use it to avoid materializing the fill pattern.
func (a Accessor) Fill(off, n int64, v byte) {
	a.check(off, n)
	if a.sim != nil {
		dst := a.sim.accessWrite(a.base+off, n)
		if v == 0 {
			clear(dst)
		} else {
			for i := range dst {
				dst[i] = v
			}
		}
		return
	}
	buf := make([]byte, n)
	if v != 0 {
		for i := range buf {
			buf[i] = v
		}
	}
	_, err := a.dev.WriteAt(buf, a.base+off)
	a.must(err)
}

// Uint32s reads n little-endian uint32 values starting at off into dst,
// which must have length >= n.  It issues one device read, so sequential
// layouts pay sequential cost.
func (a Accessor) Uint32s(off int64, dst []uint32) { a.ReadU32s(off, dst) }

// PutUint32s writes src as consecutive little-endian uint32 values at off in
// one device write.
func (a Accessor) PutUint32s(off int64, src []uint32) { a.WriteU32s(off, src) }

// Flush persists the byte range [off, off+n) of the region.
func (a Accessor) Flush(off, n int64) error {
	a.check(off, n)
	return a.dev.Flush(a.base+off, n)
}

// FlushAll persists the whole region.
func (a Accessor) FlushAll() error { return a.dev.Flush(a.base, a.size) }

func (a Accessor) check(off, n int64) {
	if off < 0 || n < 0 || off+n > a.size {
		panic("nvm: access out of region range")
	}
}
