// Package pmem provides persistent-memory pool management over a simulated
// device: arena allocation with a checksummed header, named root offsets,
// phase-level persistence (flush + checkpoint at phase boundaries, the
// libpmem strategy in the paper), and operation-level persistence via a
// redo-log transaction mechanism (the libpmemobj strategy).
package pmem

import (
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Pool header layout (all little-endian):
//
//	off  size  field
//	0    8     magic "NTADOCPM"
//	8    4     version
//	12   4     reserved
//	16   8     pool size
//	24   8     allocation top (watermark)
//	32   4     last completed checkpoint phase
//	36   4     checkpoint epoch
//	40   8     redo-log offset
//	48   8     redo-log capacity
//	56   4     reserved
//	60   4     crc32 of every other header byte: [0,60) then [64,256)
//	64   192   24 named root slots (uint64 each)
const (
	headerSize = 256
	rootSlots  = 24

	// HeaderSize exports the pool-header length for callers that must
	// respect the header's persistence ordering without parsing it: the
	// engine sizes its pool past it, and crash tests persist or tear the
	// header apart from the body.
	HeaderSize = headerSize

	offMagic   = 0
	offVersion = 8
	offSize    = 16
	offTop     = 24
	offPhase   = 32
	offEpoch   = 36
	offLogOff  = 40
	offLogCap  = 48
	offCRC     = 60
	offRoots   = 64

	poolVersion = 4
)

var magic = [8]byte{'N', 'T', 'A', 'D', 'O', 'C', 'P', 'M'}

// Common pool errors.
var (
	ErrOutOfSpace = errors.New("pmem: pool out of space")
	ErrCorrupt    = errors.New("pmem: pool header corrupt")
	ErrNoPool     = errors.New("pmem: no pool on device")
	ErrBadSlot    = errors.New("pmem: root slot out of range")
)

// Pool is an arena of persistent memory on a device.  Allocation is a bump
// pointer: the paper's engine sizes every structure up front (bottom-up
// summation), so nothing is ever freed piecemeal; a pool is reset as a whole.
type Pool struct {
	dev *nvm.SimDevice
	acc nvm.Accessor

	size int64
	top  int64 // volatile allocation watermark; persisted by Checkpoint
	// low is the lowest value top has had since the last checkpoint, so
	// everything allocated since lies in [low, top): what Checkpoint flushes.
	low int64

	logOff int64
	logCap int64
	log    *RedoLog
}

// Options configures pool creation.
type Options struct {
	// LogCap is the redo-log capacity in bytes for operation-level
	// persistence.  Zero defaults to 1 MiB.  The log is carved out of the
	// pool itself, immediately after the header.
	LogCap int64
}

// Create formats a new pool covering the whole device and returns it.  Any
// previous contents are ignored.  The header and empty redo log are made
// durable before Create returns.
func Create(dev *nvm.SimDevice, opts Options) (*Pool, error) {
	logCap := opts.LogCap
	if logCap == 0 {
		logCap = 1 << 20
	}
	size := dev.Size()
	if size < headerSize+logCap+logHeaderSize {
		return nil, fmt.Errorf("%w: device size %d too small", ErrOutOfSpace, size)
	}
	p := &Pool{
		dev:    dev,
		acc:    nvm.NewAccessor(dev, 0, size),
		size:   size,
		logOff: headerSize,
		logCap: logCap,
		top:    headerSize + logCap,
		low:    headerSize + logCap,
	}
	p.acc.WriteBytes(offMagic, magic[:])
	p.acc.PutUint32(offVersion, poolVersion)
	p.acc.PutUint64(offSize, uint64(size))
	p.acc.PutUint64(offTop, uint64(p.top))
	p.acc.PutUint32(offPhase, 0)
	p.acc.PutUint32(offEpoch, 0)
	p.acc.PutUint64(offLogOff, uint64(p.logOff))
	p.acc.PutUint64(offLogCap, uint64(p.logCap))
	for i := 0; i < rootSlots; i++ {
		p.acc.PutUint64(offRoots+int64(i)*8, 0)
	}
	p.sealHeader()
	p.log = newRedoLog(p.acc.Slice(p.logOff, p.logCap))
	if err := p.log.format(); err != nil {
		return nil, err
	}
	if err := p.flushHeader(); err != nil {
		return nil, err
	}
	return p, nil
}

// Open attaches to an existing pool on the device, validating the header and
// replaying any committed-but-unapplied redo log (crash recovery for
// operation-level persistence).  It returns ErrNoPool when the device has no
// pool and ErrCorrupt when the header fails validation.
func Open(dev *nvm.SimDevice) (*Pool, error) {
	size := dev.Size()
	if size < headerSize {
		return nil, ErrNoPool
	}
	acc := nvm.NewAccessor(dev, 0, size)
	var m [8]byte
	acc.ReadBytes(offMagic, m[:])
	if m != magic {
		return nil, ErrNoPool
	}
	// Version first: an older format is refused by name, not as a torn header.
	if v := acc.Uint32(offVersion); v != poolVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if acc.Uint32(offCRC) != headerCRC(acc) {
		return nil, ErrCorrupt
	}
	if s := int64(acc.Uint64(offSize)); s != size {
		return nil, fmt.Errorf("%w: header size %d != device size %d", ErrCorrupt, s, size)
	}
	p := &Pool{
		dev:    dev,
		acc:    acc,
		size:   size,
		top:    int64(acc.Uint64(offTop)),
		logOff: int64(acc.Uint64(offLogOff)),
		logCap: int64(acc.Uint64(offLogCap)),
	}
	p.low = p.top
	p.log = newRedoLog(acc.Slice(p.logOff, p.logCap))
	if err := p.log.recover(p.acc); err != nil {
		return nil, err
	}
	return p, nil
}

// Device returns the pool's backing device.
func (p *Pool) Device() *nvm.SimDevice { return p.dev }

// Size returns the pool capacity in bytes.
func (p *Pool) Size() int64 { return p.size }

// Allocated returns the bytes currently allocated, including header and log.
func (p *Pool) Allocated() int64 { return p.top }

// Alloc reserves n bytes aligned to align (a power of two; 0 or 1 means
// unaligned) and returns an accessor for the new region.  The watermark is
// volatile until the next Checkpoint, matching phase-level persistence:
// allocations from an interrupted phase are reclaimed on recovery.
func (p *Pool) Alloc(n, align int64) (nvm.Accessor, error) {
	if n < 0 {
		return nvm.Accessor{}, fmt.Errorf("pmem: negative allocation %d", n)
	}
	off := p.top
	if align > 1 {
		off = (off + align - 1) &^ (align - 1)
	}
	if off+n > p.size {
		return nvm.Accessor{}, fmt.Errorf("%w: need %d, have %d", ErrOutOfSpace, n, p.size-off)
	}
	p.top = off + n
	return p.acc.Slice(off, n), nil
}

// AllocZeroed is Alloc with the region zeroed, for structures that rely on a
// zero initial state (hash-table status bytes, counters).
func (p *Pool) AllocZeroed(n, align int64) (nvm.Accessor, error) {
	a, err := p.Alloc(n, align)
	if err != nil {
		return a, err
	}
	// Zero in the same 64 KiB chunks the staging-buffer implementation
	// wrote, so the charged granule sequence (and modeled time) is
	// unchanged; Fill just skips materializing the zero buffer.
	const chunk = 64 << 10
	for off := int64(0); off < n; off += chunk {
		c := n - off
		if c > chunk {
			c = chunk
		}
		a.Fill(off, c, 0)
	}
	return a, nil
}

// Reset discards all allocations (but not the header or log) and returns the
// pool to its empty state.  Used when an engine rebuilds from scratch.
func (p *Pool) Reset() {
	p.top = headerSize + p.logCap
	p.low = p.top
}

// Truncate discards allocations above top, which must lie between the
// reserved region and the current watermark.  Engines use it to release one
// phase's scratch allocations before re-running the phase; whatever is
// allocated over the released space belongs to the next Checkpoint's flush.
func (p *Pool) Truncate(top int64) error {
	if top < headerSize+p.logCap || top > p.top {
		return fmt.Errorf("pmem: truncate to %d outside [%d, %d]", top, headerSize+p.logCap, p.top)
	}
	p.top = top
	p.low = min(p.low, top)
	return nil
}

// SetRoot stores a named root offset in header slot i.  Durable at the next
// Checkpoint (or immediately via FlushHeader).
func (p *Pool) SetRoot(i int, off int64) error {
	if i < 0 || i >= rootSlots {
		return ErrBadSlot
	}
	p.acc.PutUint64(offRoots+int64(i)*8, uint64(off))
	return nil
}

// Root returns the offset stored in root slot i.
func (p *Pool) Root(i int) (int64, error) {
	if i < 0 || i >= rootSlots {
		return 0, ErrBadSlot
	}
	return int64(p.acc.Uint64(offRoots + int64(i)*8)), nil
}

// AccessorAt returns an accessor for an arbitrary allocated region, used to
// reattach to structures found via root slots after reopening a pool.
func (p *Pool) AccessorAt(off, n int64) nvm.Accessor { return p.acc.Slice(off, n) }

// Phase returns the last durably completed checkpoint phase, 0 if none.
func (p *Pool) Phase() uint32 { return p.acc.Uint32(offPhase) }

// Epoch returns the checkpoint counter.
func (p *Pool) Epoch() uint32 { return p.acc.Uint32(offEpoch) }

// Checkpoint makes what the phase allocated durable and records phase as
// completed: the phase-level persistence strategy.  On crash, recovery
// restarts from the last completed phase (see Phase).
//
// The flush covers [low, top), where low is the lowest the watermark has been
// since the previous checkpoint (or since Create/Open): every allocation the
// phase made, including ones that reuse space a Truncate released.  The
// allocations below low were made durable by the checkpoint that covered
// them and are not flushed again, so a phase that writes into an older
// allocation either flushes those bytes itself (the redo log, the engine's
// operation and append logs) or treats them as scratch that recovery never
// reads and the next phase re-initializes.
func (p *Pool) Checkpoint(phase uint32) error {
	// Flush data first, then the header that declares it valid; the header
	// write is the commit point.
	if err := p.dev.Flush(p.low, p.top-p.low); err != nil {
		return err
	}
	if err := p.dev.Drain(); err != nil {
		return err
	}
	p.low = p.top
	p.acc.PutUint64(offTop, uint64(p.top))
	p.acc.PutUint32(offPhase, phase)
	p.acc.PutUint32(offEpoch, p.Epoch()+1)
	p.sealHeader()
	return p.flushHeader()
}

// FlushHeader seals and persists the header without declaring a new phase.
func (p *Pool) FlushHeader() error {
	p.acc.PutUint64(offTop, uint64(p.top))
	p.sealHeader()
	return p.flushHeader()
}

// Begin starts an operation-level transaction.  Writes made through the
// transaction are redo-logged and become durable atomically at Commit.
func (p *Pool) Begin() (*Tx, error) { return p.log.begin(p) }

func (p *Pool) sealHeader() { p.acc.PutUint32(offCRC, headerCRC(p.acc)) }

// headerCRC reads the header once and returns the CRC of every byte of it
// but the CRC word: the seal covers the root slots too.
func headerCRC(acc nvm.Accessor) uint32 {
	head := make([]byte, headerSize)
	acc.ReadBytes(0, head)
	return crc32.Update(crc32.ChecksumIEEE(head[:offCRC]), crc32.IEEETable, head[offRoots:])
}

func (p *Pool) flushHeader() error {
	if err := p.dev.Flush(0, headerSize); err != nil {
		return err
	}
	return p.dev.Drain()
}
