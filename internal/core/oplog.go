package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// opLog implements the operation-level persistence strategy (§IV-E): every
// global counter allocation and mutation of one analytics operation (one
// rule processed) is staged in DRAM, and the operation's commit seals the
// stage into one redo frame — one device write, one flush, one fence — the
// granularity at which libpmemobj transactions wrap the paper's engine.
// Per-file counters are scratch and never logged (exec.newKCounter).  Only the frame is made durable per operation; the tables it
// describes stay volatile until a log compaction or the phase checkpoint.
//
// Region layout: epoch u32, poolEpoch u32, then frames back to back:
//
//	epoch u32 | payload bytes u32 | crc32 u32 | payload | 0 u32
//
// The CRC covers the epoch, the length and the payload.  The zero word
// terminates the log — epoch 0 is never current — and is overwritten by the
// next frame's epoch, so the walk never has to interpret bytes that were in
// the region before the frame (a fresh log starts on a zero word too, and a
// restarted one on a frame of its own past).  Frames are self-validating:
// recovery walks them from the log start while the epoch matches, the length
// fits the region and the CRC holds; anything past the last commit fence was
// volatile and correctly vanishes.  A frame is an operation, so replay is
// all-or-nothing per operation.
//
// The payload is a run of entries, every field a varint:
//
//	tag    zig-zag(table offset − previous entry's, 0 before the first) << 1 | alloc
//	alloc = 0, a counter update:     key, delta
//	alloc = 1, a counter allocation: the counter's header word
//
// (growable-ablation tables log the negative offset they report; replay
// skips them.)
//
// When a frame does not fit, the log compacts: the epoch advances (the log
// restarts empty), every table dirtied since the last compaction is flushed
// whole, and the stage is dropped — it was staged after its effects reached
// the volatile tables, so the flush has just made them durable, and a frame
// in the fresh epoch would apply them a second time.  Replay then
// reconstructs exactly durable-tables + current-epoch frames; a compaction
// flushes a new table whole, so later epochs need no allocation entry for it.
//
// A second header field records the pool's checkpoint epoch at the moment
// the log (re)started.  A phase checkpoint makes every table durable and
// advances the pool epoch, superseding the log's frames; recovery therefore
// replays only when no checkpoint happened after the frames were written,
// which prevents double-applying operations that a completed traversal
// already made durable.
type opLog struct {
	acc   nvm.Accessor
	epoch uint32
	head  int64 // where the next frame starts: on the last frame's terminator

	// stage is the open operation's frame under assembly, in DRAM: room for
	// the frame header, then the entries staged so far.  An operation is
	// sealed early once its payload reaches maxPayload — half the log — so
	// the buffer never outgrows half the log and one entry, whatever the
	// operation's size.
	stage      []byte
	lastOff    int64 // table offset of the last staged entry
	maxPayload int

	compactions int64 // times the log filled and restarted
	bytes       int64 // bytes written to the log region
}

const (
	opLogHeader = 8
	frameHeader = 12 // epoch, payload bytes, crc
	frameEnd    = 4  // the zero terminator word
	// opLogMin is the smallest usable log: the header, and one frame around
	// one entry.
	opLogMin = opLogHeader + frameHeader + maxEntry + frameEnd
)

// newOpLog attaches to the log in acc.
func newOpLog(acc nvm.Accessor) (*opLog, error) {
	if acc.Size() < opLogMin {
		return nil, fmt.Errorf("core: operation log of %d bytes, need at least %d", acc.Size(), opLogMin)
	}
	return &opLog{
		acc:        acc,
		epoch:      acc.Uint32(0),
		head:       opLogHeader,
		stage:      make([]byte, frameHeader),
		maxPayload: int(acc.Size()-opLogHeader-frameHeader-frameEnd) / 2,
	}, nil
}

// createOpLog formats a fresh, empty log in acc.  Epoch-stamped, checksummed
// frames make pre-zeroing unnecessary: only the header and the word the first
// frame will start on need a defined state.
func createOpLog(acc nvm.Accessor, poolEpoch uint32) (*opLog, error) {
	l, err := newOpLog(acc)
	if err != nil {
		return nil, err
	}
	acc.WriteBytes(0, make([]byte, opLogHeader+frameEnd))
	l.epoch = 0
	return l, l.reset(poolEpoch)
}

// reset empties the log durably by advancing the epoch (all prior frames
// become stale without being rewritten) and records the pool checkpoint
// epoch its future frames will belong to.  Whatever was staged is dropped:
// callers reset only when the staged effects are durable another way (a
// compaction's table flush) or superseded (a traversal's start and end).
func (l *opLog) reset(poolEpoch uint32) error {
	l.epoch++
	l.acc.PutUint32(0, l.epoch)
	l.acc.PutUint32(4, poolEpoch)
	if err := l.acc.Flush(0, opLogHeader); err != nil {
		return err
	}
	if err := l.acc.Device().Drain(); err != nil {
		return err
	}
	l.bytes += opLogHeader
	l.head = opLogHeader
	l.dropStage()
	return nil
}

func (l *opLog) dropStage() {
	l.stage = l.stage[:frameHeader]
	l.lastOff = 0
}

// maxEntry bounds one staged entry: three maximal varints.
const maxEntry = 3 * binary.MaxVarintLen64

// stageEntry appends one entry's fields to the open operation.
func (l *opLog) stageEntry(e *Engine, tableOff int64, alloc uint64, fields ...uint64) error {
	if cap(l.stage)-len(l.stage) < maxEntry+frameEnd {
		// Grow by doubling, but never past the largest frame the early seal
		// lets through: the stage is DRAM the engine is accounted for.
		grown := make([]byte, len(l.stage), min(2*cap(l.stage)+maxEntry, frameHeader+l.maxPayload+maxEntry+frameEnd))
		copy(grown, l.stage)
		l.stage = grown
	}
	d := tableOff - l.lastOff
	l.lastOff = tableOff
	l.stage = binary.AppendUvarint(l.stage, (uint64(d<<1)^uint64(d>>63))<<1|alloc)
	for _, f := range fields {
		l.stage = binary.AppendUvarint(l.stage, f)
	}
	if len(l.stage)-frameHeader >= l.maxPayload {
		// An operation this large is sealed in parts (a compaction in
		// mid-operation makes part of one durable just the same).
		return l.commit(e)
	}
	return nil
}

// append stages one counter mutation, which the caller has already applied
// to the (dirty-marked) table.  It is not durable until commit.
func (l *opLog) append(e *Engine, tableOff int64, key, delta uint64) error {
	return l.stageEntry(e, tableOff, 0, key, delta)
}

// appendAlloc stages the allocation of the counter with the given header
// word at tableOff, which the caller has already dirty-marked.
func (l *opLog) appendAlloc(e *Engine, tableOff int64, header uint64) error {
	return l.stageEntry(e, tableOff, 1, header)
}

// frameCRC checksums a frame: its first two header words and its payload.
func frameCRC(frame []byte, payload int) uint32 {
	crc := crc32.ChecksumIEEE(frame[:8])
	return crc32.Update(crc, crc32.IEEETable, frame[frameHeader:frameHeader+payload])
}

// DebugStageSurvivesCompaction re-creates the double-apply bug the
// drop-the-stage rule prevents: a frame that did not fit is written into the
// fresh epoch after the compaction that already flushed its effects with the
// tables.  Exists only so the crash-exploration harness can prove (in a
// negative test) that it detects this class of bug.  Never set outside tests.
var DebugStageSurvivesCompaction bool

// commit seals the staged entries into one frame and makes it durable: the
// per-operation write + flush + fence that defines operation-level
// persistence cost.  When the frame does not fit, the compaction makes the
// staged effects durable instead.
func (l *opLog) commit(e *Engine) error {
	payload := len(l.stage) - frameHeader
	if payload == 0 {
		return nil
	}
	if !l.fits() {
		if !DebugStageSurvivesCompaction {
			return l.compact(e) // which drops the stage
		}
		staged := slices.Clone(l.stage)
		if err := l.compact(e); err != nil || int64(len(staged)) > l.acc.Size()-opLogHeader-frameEnd {
			return err
		}
		l.stage = staged
	}
	binary.LittleEndian.PutUint32(l.stage[0:], l.epoch)
	binary.LittleEndian.PutUint32(l.stage[4:], uint32(payload))
	binary.LittleEndian.PutUint32(l.stage[8:], frameCRC(l.stage, payload))
	l.stage = append(l.stage, 0, 0, 0, 0)
	n := int64(len(l.stage))
	l.acc.WriteBytes(l.head, l.stage)
	if err := l.acc.Flush(l.head, n); err != nil {
		return err
	}
	l.bytes += n
	l.head += n - frameEnd
	l.dropStage()
	return l.acc.Device().Drain()
}

// fits reports whether the staged frame and its terminator fit the log.
func (l *opLog) fits() bool {
	return l.head+int64(len(l.stage))+frameEnd <= l.acc.Size()
}

// compact restarts the log and flushes the traversal tables dirtied since
// the last compaction, making their state durable.  The log is invalidated
// *first*: delta entries are not idempotent, so valid frames must never
// coexist with durable tables that already contain their effects — a crash
// between the table flush and a trailing log reset would double-apply every
// frame on recovery.  A crash after the reset but before the table drain
// instead leaves an empty log over tables that nothing references (the
// previous compaction's, or a torn mixture): the traversal is re-run.
func (l *opLog) compact(e *Engine) error {
	l.compactions++
	if err := l.reset(e.pool.Epoch()); err != nil {
		return err
	}
	// Flush in ascending offset order: on seek-charging devices the flush
	// order is observable in the modeled stats, and map order would make
	// them vary from run to run.
	dirty := make([]int64, 0, len(e.travDirty))
	for off := range e.travDirty {
		dirty = append(dirty, off)
	}
	slices.Sort(dirty)
	for _, off := range dirty {
		tbl, ok := e.travTables[off]
		if !ok {
			continue // growable ablation table; covered by its own writes
		}
		if err := tbl.Flush(); err != nil {
			return err
		}
		delete(e.travDirty, off)
	}
	if err := e.pool.FlushHeader(); err != nil {
		return err
	}
	return e.pool.Device().Drain()
}

// DebugSkipLogEpochCheck disables the epoch staleness guards in
// opLog.frames — both the pool-epoch header check and the per-frame epoch
// match — re-creating the double-replay bug they prevent: frames superseded
// by a log reset or a completed checkpoint are replayed anyway (their CRCs
// are still valid).  Exists only so the crash-exploration harness can prove
// (in a negative test) that it detects this class of recovery bug.  Never
// set outside tests.
var DebugSkipLogEpochCheck bool

// frames walks the log from its start (recovery path), calling fn with each
// valid frame's payload, and returns where the walk ended.  poolEpoch is the
// pool's current checkpoint epoch: frames written before a later checkpoint
// are superseded by the durable tables that checkpoint flushed, and must not
// replay.  The payload is the walk's own buffer, valid until fn returns.
func (l *opLog) frames(poolEpoch uint32, fn func(payload []byte) error) (end int64, err error) {
	end = opLogHeader
	if l.acc.Uint32(4) != poolEpoch && !DebugSkipLogEpochCheck {
		return end, nil
	}
	epoch := l.acc.Uint32(0)
	var frame []byte
	for end+frameHeader+frameEnd <= l.acc.Size() {
		if l.acc.Uint32(end) != epoch && !DebugSkipLogEpochCheck {
			break
		}
		n := int64(l.acc.Uint32(end + 4))
		if n == 0 || n > l.acc.Size()-end-frameHeader-frameEnd {
			break
		}
		frame = fit(frame, int(frameHeader+n))
		l.acc.ReadBytes(end, frame)
		if binary.LittleEndian.Uint32(frame[8:]) != frameCRC(frame, int(n)) {
			break
		}
		if err := fn(frame[frameHeader:]); err != nil {
			return end, err
		}
		end += frameHeader + n
	}
	return end, nil
}

// opEntry is one decoded log entry: a counter update (key, delta), or the
// allocation of the counter whose header word is header.
type opEntry struct {
	tableOff   int64
	alloc      bool
	key, delta uint64
	header     uint64
}

// decodeEntries calls fn with each entry of one frame's payload.  A payload
// that does not decode did not come from stageEntry.
func decodeEntries(payload []byte, fn func(opEntry) error) error {
	var off int64
	next := func() (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("%w: malformed operation-log entry", ErrNeedsReload)
		}
		payload = payload[n:]
		return v, nil
	}
	for len(payload) > 0 {
		tag, err := next()
		if err != nil {
			return err
		}
		zz := tag >> 1
		off += int64(zz>>1) ^ -int64(zz&1)
		ent := opEntry{tableOff: off, alloc: tag&1 != 0}
		if ent.alloc {
			if ent.header, err = next(); err != nil {
				return err
			}
		} else {
			if ent.key, err = next(); err != nil {
				return err
			}
			if ent.delta, err = next(); err != nil {
				return err
			}
		}
		if err := fn(ent); err != nil {
			return err
		}
	}
	return nil
}

func (l *opLog) String() string {
	return fmt.Sprintf("oplog{epoch=%d head=%d size=%d}", l.epoch, l.head, l.acc.Size())
}
