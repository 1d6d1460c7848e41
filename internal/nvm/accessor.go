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
// The region bounds are validated once here — the accessor's region is a
// subrange of the device by construction, so the device's own range check is
// redundant — and bytes are decoded and encoded straight against the
// device's volatile image, with no intermediate buffer.  Charging is
// identical to the device's ReadAt/WriteAt; only host-side work differs.
type Accessor struct {
	dev  *SimDevice
	base int64
	size int64
}

// NewAccessor returns an accessor for the n bytes of dev starting at base.
func NewAccessor(dev *SimDevice, base, n int64) Accessor {
	if base < 0 || n < 0 || base+n > dev.Size() {
		panic("nvm: accessor out of device range")
	}
	return Accessor{dev: dev, base: base, size: n}
}

// Device returns the underlying device.
func (a Accessor) Device() *SimDevice { return a.dev }

// Base returns the region's absolute device offset.
func (a Accessor) Base() int64 { return a.base }

// Size returns the region length in bytes.
func (a Accessor) Size() int64 { return a.size }

// Slice returns an accessor for the sub-region [off, off+n).
func (a Accessor) Slice(off, n int64) Accessor {
	if off < 0 || n < 0 || off+n > a.size {
		panic("nvm: slice out of region range")
	}
	return Accessor{dev: a.dev, base: a.base + off, size: n}
}

// ReadBytes copies len(p) bytes at region offset off into p.
func (a Accessor) ReadBytes(off int64, p []byte) {
	n := int64(len(p))
	a.check(off, n)
	copy(p, a.dev.accessRead(a.base+off, n))
}

// WriteBytes copies p to region offset off.
func (a Accessor) WriteBytes(off int64, p []byte) {
	n := int64(len(p))
	a.check(off, n)
	copy(a.dev.accessWrite(a.base+off, n), p)
}

// ReadView charges a read of [off, off+n) and returns the bytes with zero
// copy.  The view aliases device memory: it is valid only until the next
// write to the device, or until the device crashes or is discarded — the
// image may be unmapped then, and reading the view would fault — and must not
// be mutated.  Scans that only inspect bytes (hash table status runs, token
// streams) use it to avoid staging buffers.
func (a Accessor) ReadView(off, n int64) []byte {
	a.check(off, n)
	return a.dev.accessRead(a.base+off, n)
}

// Uint32 reads a little-endian uint32 at off.
func (a Accessor) Uint32(off int64) uint32 {
	a.check(off, 4)
	return binary.LittleEndian.Uint32(a.dev.accessRead(a.base+off, 4))
}

// PutUint32 writes v at off.
func (a Accessor) PutUint32(off int64, v uint32) {
	a.check(off, 4)
	binary.LittleEndian.PutUint32(a.dev.accessWrite(a.base+off, 4), v)
}

// Uint64 reads a little-endian uint64 at off.
func (a Accessor) Uint64(off int64) uint64 {
	a.check(off, 8)
	return binary.LittleEndian.Uint64(a.dev.accessRead(a.base+off, 8))
}

// PutUint64 writes v at off.
func (a Accessor) PutUint64(off int64, v uint64) {
	a.check(off, 8)
	binary.LittleEndian.PutUint64(a.dev.accessWrite(a.base+off, 8), v)
}

// Byte reads the byte at off.
func (a Accessor) Byte(off int64) byte {
	a.check(off, 1)
	return a.dev.accessRead(a.base+off, 1)[0]
}

// PutByte writes v at off.
func (a Accessor) PutByte(off int64, v byte) {
	a.check(off, 1)
	a.dev.accessWrite(a.base+off, 1)[0] = v
}

// Uint32s reads len(dst) little-endian uint32 values starting at off in one
// device read — charge-identical to ReadBytes over the same range, so
// sequential layouts pay sequential cost.
func (a Accessor) Uint32s(off int64, dst []uint32) {
	n := int64(len(dst)) * 4
	a.check(off, n)
	src := a.dev.accessRead(a.base+off, n)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[i*4:])
	}
}

// PutUint32s writes src as consecutive little-endian uint32 values at off in
// one device write — charge-identical to WriteBytes over the same range.
func (a Accessor) PutUint32s(off int64, src []uint32) {
	n := int64(len(src)) * 4
	a.check(off, n)
	dst := a.dev.accessWrite(a.base+off, n)
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], v)
	}
}

// ReadU64s reads len(dst) little-endian uint64 values starting at off in one
// device read — charge-identical to ReadBytes over the same range.
func (a Accessor) ReadU64s(off int64, dst []uint64) {
	n := int64(len(dst)) * 8
	a.check(off, n)
	src := a.dev.accessRead(a.base+off, n)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[i*8:])
	}
}

// Fill writes n copies of v at off in one device write — charge-identical to
// WriteBytes of an n-byte buffer.  Zeroing loops (pool allocation, table
// resets) use it to avoid materializing the fill pattern.
func (a Accessor) Fill(off, n int64, v byte) {
	a.check(off, n)
	dst := a.dev.accessWrite(a.base+off, n)
	if v == 0 {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = v
	}
}

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
