package nvm

import "encoding/binary"

// Batch is one straight-line run of reads against a device: a record's
// fields, a length prefix and the body behind it, a table header.  On a
// shared simulated device (see SimDevice.Share) the whole run takes the
// device's lock once instead of once per access; every access is charged
// exactly as the Accessor method of the same name charges it, in the order
// issued, so modeled cost and Stats cannot tell a batch from the accesses it
// replaces.
//
// A Batch holds a lock: End it before calling anything that may touch the
// device again — in particular before any callback — and issue nothing
// between BeginReads and End but the batch's own reads.  A failed bounds
// check releases the lock before it panics.
type Batch struct {
	sim    *SimDevice // nil on a foreign Device: reads fall back to the Accessor's
	locked bool
}

// BeginReads opens a batch on the accessor's device.
func (a Accessor) BeginReads() Batch {
	b := Batch{sim: a.sim}
	if b.sim != nil && b.sim.shared.Load() {
		b.sim.opMu.Lock()
		b.locked = true
	}
	return b
}

// End closes the batch, releasing the device.
func (b Batch) End() {
	if b.locked {
		b.sim.opMu.Unlock()
	}
}

// view charges a read of a's [off, off+n) and returns the bytes; like
// Accessor.ReadView they alias device memory.
func (b Batch) view(a Accessor, off, n int64) []byte {
	if off < 0 || n < 0 || off+n > a.size || a.sim != b.sim {
		b.End()
		panic("nvm: batched read out of region range or on another device")
	}
	if b.sim == nil {
		return a.ReadView(off, n)
	}
	return b.sim.readHeld(a.base+off, n)
}

// Byte reads the byte at a's offset off.
func (b Batch) Byte(a Accessor, off int64) byte { return b.view(a, off, 1)[0] }

// Uint32 reads a little-endian uint32 at a's offset off.
func (b Batch) Uint32(a Accessor, off int64) uint32 {
	return binary.LittleEndian.Uint32(b.view(a, off, 4))
}

// Uint64 reads a little-endian uint64 at a's offset off.
func (b Batch) Uint64(a Accessor, off int64) uint64 {
	return binary.LittleEndian.Uint64(b.view(a, off, 8))
}

// Uint32s reads len(dst) little-endian uint32 values starting at a's offset
// off in one device read.
func (b Batch) Uint32s(a Accessor, off int64, dst []uint32) {
	src := b.view(a, off, int64(len(dst))*4)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(src[i*4:])
	}
}
