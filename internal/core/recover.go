package core

import (
	"errors"
	"fmt"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// RecoveryInfo reports what Reopen found on the device.
type RecoveryInfo struct {
	// Phase is the last durably completed phase: phaseInit means the DAG
	// pool is intact and traversal must (re)run; phaseTraversal means the
	// last task's results are committed and readable.
	Phase uint32
	// Replayed is the number of logged operations (redo frames) applied
	// onto the recovered tables.
	Replayed int64
	// CommittedTask is the task whose results are committed, valid when
	// Phase == 2 (graph traversal).
	CommittedTask analytics.Task
}

// Reopen recovers an engine from an existing pool after a crash or restart.
// The persistence contract (§IV-E):
//
//   - If initialization never completed, ErrNeedsReload is returned and the
//     caller must rebuild with New from the compressed input.
//   - Phase-level: the engine restarts from the last completed phase — the
//     DAG pool is intact, an interrupted traversal is simply re-run.
//   - Operation-level: additionally, the operations logged before the crash
//     are replayed onto the recovered tables, each whole or not at all.
//
// opts must carry the same ablation/persistence configuration the pool was
// built with.
func Reopen(dev *nvm.SimDevice, d *dict.Dictionary, opts Options) (*Engine, *RecoveryInfo, error) {
	opts = opts.withDefaults()
	pool, err := pmem.Open(dev)
	if err != nil {
		// A missing or corrupt pool is the same condition as an incomplete
		// initialization: the durable state is unusable and the caller must
		// rebuild from the compressed input.  Never a panic or a mis-sized
		// pool.
		if errors.Is(err, pmem.ErrNoPool) || errors.Is(err, pmem.ErrCorrupt) {
			return nil, nil, fmt.Errorf("%w: %v", ErrNeedsReload, err)
		}
		return nil, nil, err
	}
	if pool.Phase() < phaseInit {
		return nil, nil, ErrNeedsReload
	}
	e := &Engine{opts: opts, dev: dev, pool: pool, d: d, meter: &metrics.Meter{}}
	info := &RecoveryInfo{Phase: pool.Phase()}

	get := func(slot int) int64 {
		v, err := pool.Root(slot)
		if err != nil {
			panic("core: root slot: " + err.Error())
		}
		return v
	}
	// Root slots are not covered by the header CRC, so validate every region
	// they describe, and every root run, before constructing accessors: each
	// lies below the initialization watermark, and a corrupt slot or length
	// word must surface as ErrNeedsReload, never as an accessor panic.
	e.initTop = get(rootInitTop)
	limit := min(e.initTop, pool.Size())
	region := func(off, n int64, what string) (nvm.Accessor, error) {
		if off < 0 || n < 0 || off > limit || n > limit-off {
			return nvm.Accessor{}, fmt.Errorf("%w: %s region [%d, +%d) outside the initialized pool",
				ErrNeedsReload, what, off, n)
		}
		return pool.AccessorAt(off, n), nil
	}
	e.numRules = uint32(get(rootNumRules))
	e.numWords = uint32(get(rootNumWords))
	e.numFiles = uint32(get(rootNumFiles))
	if e.metaAcc, err = region(get(rootMeta), int64(e.numRules)*metaSize, "rule meta"); err != nil {
		return nil, nil, err
	}
	rootOff := get(rootRootBody)
	hdr, err := region(rootOff, 8, "root body header")
	if err != nil {
		return nil, nil, err
	}
	e.rootLen = int64(hdr.Uint64(0))
	if e.rootAcc, err = region(rootOff, 8+e.rootLen*4, "root body"); err != nil {
		return nil, nil, err
	}
	if e.topoAcc, err = region(get(rootTopo), int64(e.numRules)*4, "topo order"); err != nil {
		return nil, nil, err
	}
	e.distinctWords = get(rootDistinct)
	e.bodySymbols = get(rootBodySyms)
	e.mergeWork = get(rootMergeWork)
	info.CommittedTask = analytics.Task(get(rootTaskID))

	// Sequence structures.
	if seqDictOff := get(rootSeqDict); seqDictOff != 0 {
		e.seqEnabled = true
		cntAcc, err := region(seqDictOff, 8, "sequence dict header")
		if err != nil {
			return nil, nil, err
		}
		cnt := int64(cntAcc.Uint64(0))
		acc, err := region(seqDictOff, 8+cnt*12, "sequence dict")
		if err != nil {
			return nil, nil, err
		}
		flat := make([]uint32, cnt*3)
		acc.Uint32s(8, flat)
		e.seqList = make([]analytics.Seq, cnt)
		for i := range e.seqList {
			e.seqList[i] = analytics.Seq{flat[i*3], flat[i*3+1], flat[i*3+2]}
		}
		if e.localsAcc, err = region(get(rootSeqLocal), int64(e.numRules)*8, "sequence locals"); err != nil {
			return nil, nil, err
		}
		if e.runsAcc, err = region(get(rootRuns), int64(e.numFiles)*8, "root run offsets"); err != nil {
			return nil, nil, err
		}
		for f := int64(0); f < int64(e.numFiles); f++ {
			if off := int64(e.runsAcc.Uint64(f * 8)); off != 0 {
				hdr, err := region(off, 4, "root run header")
				if err == nil {
					_, err = region(off, 4+8*int64(hdr.Uint32(0)), "root run")
				}
				if err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// Operation-level log: reattach and replay pending records.
	if opts.Persistence == OpLevel {
		logOff := get(rootOpLog)
		if logOff != 0 {
			logAcc, err := region(logOff, opts.OpLogCap, "operation log")
			if err != nil {
				return nil, nil, err
			}
			if e.oplog, err = newOpLog(logAcc); err != nil {
				return nil, nil, err
			}
			if info.Replayed, err = e.replayOps(); err != nil {
				return nil, nil, err
			}
		}
	}
	// Append-log region: replay the committed batches into a fresh delta
	// builder and republish the serving view.  The replayed corpus epoch
	// equals the committed batch count — exactly the appends a pre-crash
	// reader could have observed.  The shard set restores the shared
	// dictionary after all shards reopen (batches interleave across shards in
	// global append order).
	if ingestOff := get(rootIngest); ingestOff != 0 {
		if ingestOff < 0 || ingestOff+ingestHeaderSize > pool.Size() {
			return nil, nil, fmt.Errorf("%w: append-log header outside pool", ErrNeedsReload)
		}
		if err := e.recoverIngest(ingestOff); err != nil {
			return nil, nil, err
		}
	}
	e.travTables = make(map[int64]counterTable)
	e.travDirty = make(map[int64]bool)
	e.run = exec{e: e, meter: e.meter, ws: &workspace{}}
	return e, info, nil
}

// replayOps applies the log's valid frames onto their tables and returns how
// many it applied.  An allocation entry re-creates its counter empty, in
// place; an update goes to the counter an earlier entry re-created or, for a
// table a compaction flushed whole, to the durable one.  Entries come only
// from CRC-valid frames, but nothing here trusts them with memory: pstruct
// refuses an offset or a size that leaves the pool, which is ErrNeedsReload.
func (e *Engine) replayOps() (int64, error) {
	tables := make(map[int64]pstruct.Counter)
	apply := func(ent opEntry) error {
		if ent.tableOff < 0 {
			return nil // growable ablation tables are not replayable
		}
		var err error
		tbl := tables[ent.tableOff]
		switch {
		case ent.alloc:
			tbl, err = pstruct.RecreateCounterAt(e.pool, ent.tableOff, ent.header)
		case tbl == nil:
			tbl, err = pstruct.OpenCounterAt(e.pool, ent.tableOff)
		}
		if err == nil {
			tables[ent.tableOff] = tbl
			if e.replayTable == 0 {
				e.replayTable = ent.tableOff
			}
			if !ent.alloc {
				_, err = tbl.Add(ent.key, ent.delta)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: replaying log entry for offset %d: %v", ErrNeedsReload, ent.tableOff, err)
		}
		return nil
	}
	var ops int64
	end, err := e.oplog.frames(e.pool.Epoch(), func(payload []byte) error {
		ops++
		return decodeEntries(payload, apply)
	})
	if err != nil {
		return ops, err
	}
	e.oplog.head = end
	return ops, nil
}

// ReplayedCounts reads a recovered counter table: the word (or sequence-ID)
// counts reconstructed from durable state plus log replay.  It returns the
// table found at the committed result root, or the table the first replayed
// entry targeted when no traversal committed.
func (e *Engine) ReplayedCounts() (map[uint32]uint64, error) {
	off, err := e.pool.Root(rootResult)
	if err != nil {
		return nil, err
	}
	if off == 0 {
		off = e.replayTable
	}
	if off <= 0 {
		return map[uint32]uint64{}, nil
	}
	tbl, err := pstruct.OpenCounterAt(e.pool, off)
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]uint64, tbl.Len())
	tbl.Range(func(k, v uint64) bool { out[uint32(k)] = v; return true })
	return out, nil
}

// CommittedCounts returns the last committed traversal's result table when
// the pool's durable phase is graph traversal, for the counter-style tasks
// (word count, sort, sequence count).  ok is false when no traversal has
// committed or the task's results are not table-shaped.
func (e *Engine) CommittedCounts() (counts map[uint32]uint64, task analytics.Task, ok bool) {
	if e.pool.Phase() < phaseTraversal {
		return nil, 0, false
	}
	off, err := e.pool.Root(rootResult)
	if err != nil || off == 0 {
		return nil, 0, false
	}
	t, err := e.pool.Root(rootTaskID)
	if err != nil {
		return nil, 0, false
	}
	tbl, err := pstruct.OpenCounterAt(e.pool, off)
	if err != nil {
		return nil, 0, false
	}
	counts = make(map[uint32]uint64, tbl.Len())
	tbl.Range(func(k, v uint64) bool { counts[uint32(k)] = v; return true })
	return counts, analytics.Task(t), true
}
