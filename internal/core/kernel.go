package core

import (
	"context"
	"fmt"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// The operation kernel.  Every analytics task is the same DAG walk with a
// different per-visit action, so the engine owns exactly one copy of each
// traversal mode — top-down global, top-down per-file, bottom-up per-file,
// each adding up stored sequence tables as it goes (seqtask.go) — and tasks
// plug in as analytics.Op implementations.  A batch of ops that need the same
// mode shares one walk: the counters differ, but the body reads (the dominant
// device traffic) happen once.
//
// exec is one traversal execution context.  The engine's task path binds it
// to the persistent pool structures — weight/scratch metadata slots, pool
// counter tables behind the op log, the pool traversal queue — which is what
// the crash-consistency machinery protects.  A query session instead keeps
// that state in its workspace, so concurrent sessions never touch shared
// mutable pool scratch.
type exec struct {
	e     *Engine
	meter *metrics.Meter
	ws    *workspace
	// session says the traversal state lives in ws rather than in the pool.
	session bool

	// ctx, when non-nil, cancels the traversal between per-rule (or
	// per-file) operations: the walks poll it at their loop heads and
	// unwind with ctx.Err().  Only query sessions set it — the persistent
	// path never aborts mid-phase, so its crash-consistency story is
	// unchanged.
	ctx context.Context

	// cpu is modeled CPU incurred but not yet charged: session counter adds
	// count here and reach the meter once, when runPlan returns, instead of
	// one atomic add each.
	cpu int64

	// The two session counters (word-keyed, sequence-keyed) and the handle
	// stored per-rule tables are re-attached into: exec-owned, so a visit
	// allocates nothing.
	wordC, seqC kcounter
	tbl         pstruct.CounterHandle

	// The one callback every counter-into-counter merge ranges with, and its
	// arguments for the merge in progress (see addScaled).
	mergeDst   *kcounter
	mergeScale uint64
	mergeErr   error
	mergeFn    func(k, v uint64) bool
}

// canceled reports the execution context's cancellation state: nil on the
// persistent path (no context) and between cancellations, ctx.Err() once the
// session's request has been canceled or has passed its deadline.  The walks
// call it once per rule or file processed — frequent enough to bound
// cancellation latency by one body read, cheap enough (two atomic loads) to
// vanish against the modeled work of the visit itself.
func (x *exec) canceled() error {
	if x.ctx == nil {
		return nil
	}
	return x.ctx.Err()
}

// kcounter is one kernel-managed counter: a bounded pool table on the
// persistent path, a dense scratch of the workspace in a session.  It
// implements analytics.Counts; a session counter ranges in first-touch order.
type kcounter struct {
	tbl   counterTable
	off   int64
	dense *denseScratch
	// scratch marks a per-file pool table: traversal scratch that no
	// recovery reads, so its adds bypass the op log (see newKCounter).
	scratch bool
}

func (c *kcounter) Len() int64 {
	if c.dense != nil {
		return int64(len(c.dense.touched))
	}
	return c.tbl.Len()
}

func (c *kcounter) Range(fn func(k, v uint64) bool) {
	if d := c.dense; d != nil {
		for _, k := range d.touched {
			if !fn(uint64(k), d.vals[k]) {
				return
			}
		}
		return
	}
	c.tbl.Range(fn)
}

// seqOrder returns the wire order of the engine's sequence IDs, ranked on
// first use: the sequence dictionary never changes after initialization, so
// the order is a property of the shard and no request sorts sequence keys.
// It is serving state like a session workspace — absent from DRAMBytes,
// which reports the design's residency, and so from the figures.
func (e *Engine) seqOrder() analytics.KeyOrder {
	e.seqRankOnce.Do(func() { e.seqRank = analytics.RankSequences(e.seqList, e.d.Words()) })
	return e.seqRank
}

// keySpace returns the size of the engine's dense key space for keys.
func (e *Engine) keySpace(keys analytics.KeySpace) int64 {
	if keys == analytics.KeyWords {
		return int64(e.numWords)
	}
	return int64(len(e.seqList))
}

// newKCounter starts a counter of at most bound distinct keys for the current
// execution context.  A session has one counter per key space — no traversal
// accumulates two of a kind at once — so starting one empties the last.
//
// On the persistent path the counter's scope decides what its table is.  A
// global counter is a destination: registered for the op log's compaction
// and replay, its allocation and every add logged.  A per-file counter — a
// file's counter, or one of bottom-up's per-rule lists — is scratch the fold
// consumes and no recovery reads: allocated above the per-file pass's mark
// and truncated away with it (perFilePass), never registered, never logged,
// so no checkpoint or compaction flushes it.
func (x *exec) newKCounter(bound int64, keys analytics.KeySpace, scope analytics.Scope) (*kcounter, error) {
	if x.session {
		c, d := &x.wordC, &x.ws.words
		if keys == analytics.KeySequences {
			c, d = &x.seqC, &x.ws.seqs
		}
		d.begin(x.e.keySpace(keys), bound)
		*c = kcounter{off: -1, dense: d}
		return c, nil
	}
	if scope == analytics.ScopePerFile {
		tbl, err := x.e.newTable(bound, x.e.keySpace(keys))
		if err != nil {
			return nil, err
		}
		return &kcounter{tbl: tbl, scratch: true}, nil
	}
	tbl, off, err := x.e.newCounter(bound, x.e.keySpace(keys))
	if err != nil {
		return nil, err
	}
	return &kcounter{tbl: tbl, off: off}, nil
}

// add performs one counter mutation.  A global pool counter goes through
// the op-log write-ahead protocol, a per-file one straight to its table; the
// session path incurs the same hash cost.
func (x *exec) add(c *kcounter, key, delta uint64) error {
	switch {
	case c.dense != nil:
		x.cpu += metrics.CostHashOp
		return c.dense.add(key, delta)
	case c.scratch:
		x.e.updates++
		_, err := c.tbl.Add(key, delta)
		return err
	}
	return x.e.addCount(c.tbl, c.off, key, delta)
}

// chargeCPU moves the locally counted CPU onto the meter.
func (x *exec) chargeCPU() {
	x.meter.Charge(x.cpu, 1)
	x.cpu = 0
}

// addScaled adds every entry src ranges over, scaled by scale, into dst,
// through the one callback the exec keeps: a merge allocates no closure.
func (x *exec) addScaled(dst *kcounter, src analytics.Counts, scale uint64) error {
	if x.mergeFn == nil {
		x.mergeFn = func(k, v uint64) bool {
			x.mergeErr = x.add(x.mergeDst, k, v*x.mergeScale)
			return x.mergeErr == nil
		}
	}
	x.mergeDst, x.mergeScale, x.mergeErr = dst, scale, nil
	src.Range(x.mergeFn)
	return x.mergeErr
}

// mergeTable adds every entry of the stored table at pool offset off, scaled
// by scale, into dst, re-attaching the exec's own handle: a visit allocates
// no table object either.
func (x *exec) mergeTable(dst *kcounter, off int64, scale uint64) error {
	tbl, err := x.tbl.Attach(x.e.pool, off)
	if err != nil {
		return err
	}
	return x.addScaled(dst, tbl, scale)
}

// commit fences the op log after one analytics operation; free when nothing
// was appended, a no-op in sessions.
func (x *exec) commit() error {
	if x.session {
		return nil
	}
	return x.e.opCommit()
}

// Rule weights and the remaining-parents scratch: NVM metadata slots on the
// persistent path (charged by the device model, readable after a crash),
// workspace arrays in a session.  Access order mirrors the persistent
// accessors exactly so the modeled device pattern is unchanged.

func (x *exec) weight(r uint32) uint64 {
	if x.session {
		return x.ws.weights[r]
	}
	return x.e.meta(r).weight()
}

func (x *exec) setWeight(r uint32, v uint64) {
	if x.session {
		x.ws.weights[r] = v
		return
	}
	x.e.meta(r).setWeight(v)
}

func (x *exec) remaining(r uint32) uint64 {
	if x.session {
		return x.ws.remaining[r]
	}
	return x.e.meta(r).scratch()
}

func (x *exec) setRemaining(r uint32, v uint64) {
	if x.session {
		x.ws.remaining[r] = v
		return
	}
	x.e.meta(r).setScratch(v)
}

// kqueue is the Kahn work queue: the pool traversal queue on the persistent
// path, a FIFO over the workspace's ring in a session (every rule is pushed
// at most once, so the ring never grows past its numRules capacity).
type kqueue struct {
	q    *pstruct.Queue
	ring []uint32
	head int
}

func (x *exec) newQueue(capacity int64) (*kqueue, error) {
	if x.session {
		x.ws.ring = fit(x.ws.ring, int(capacity))
		return &kqueue{ring: x.ws.ring[:0]}, nil
	}
	q, err := pstruct.NewQueue(x.e.pool, capacity)
	if err != nil {
		return nil, err
	}
	return &kqueue{q: q}, nil
}

func (q *kqueue) push(r uint32) error {
	if q.q != nil {
		return q.q.Push(r)
	}
	q.ring = append(q.ring, r)
	return nil
}

func (q *kqueue) pop() (uint32, error) {
	if q.q != nil {
		return q.q.Pop()
	}
	r := q.ring[q.head]
	q.head++
	return r, nil
}

func (q *kqueue) len() int64 {
	if q.q != nil {
		return q.q.Len()
	}
	return int64(len(q.ring) - q.head)
}

// execEnv adapts an execution context to the analytics.Env folds consume.
type execEnv struct{ x *exec }

func (v execEnv) Dict() *dict.Dictionary         { return v.x.e.d }
func (v execEnv) NumFiles() int                  { return int(v.x.e.numFiles) }
func (v execEnv) SeqOf(key uint64) analytics.Seq { return v.x.e.seqList[key] }
func (v execEnv) Charge(n, perOp int64)          { v.x.meter.Charge(n, perOp) }

// FoldScratch implements analytics.ScratchEnv: folds accumulate in the
// workspace, under the engine's declared key spaces (runPlan sets them).
func (v execEnv) FoldScratch() *analytics.FoldScratch { return &v.x.ws.folds }

// runPlan executes a batch of ops over the fewest traversals their
// declarations allow: one top-down global pass feeds every global op (word
// counters and, via the weights it leaves behind, the sequence
// decomposition), and one per-file pass feeds every per-file op.
// resultOffs[i] is the durable pool offset of op i's global counter (0 for
// per-file ops, whose results are DRAM aggregates).
func (x *exec) runPlan(ops []analytics.Op) (results []any, resultOffs []int64, err error) {
	defer x.chargeCPU()
	defer x.ws.publish()
	x.ws.folds.Reset()
	x.ws.folds.WordKeys = int(x.e.keySpace(analytics.KeyWords))
	x.ws.folds.SeqKeys = int(x.e.keySpace(analytics.KeySequences))
	// Keyed results come out in wire order (analytics.KeyOrder): the word
	// table is the dictionary's, the sequence table this engine's own.
	x.ws.folds.WordOrder.Rank, x.ws.folds.WordOrder.Order = x.e.d.Alphabetical()
	if n := len(x.ws.folds.WordOrder.Rank); n < x.ws.folds.WordKeys {
		return nil, nil, fmt.Errorf("dictionary holds %d words, the engine %d", n, x.ws.folds.WordKeys)
	}
	env := execEnv{x: x}
	folds := make([]analytics.Fold, len(ops))
	resultOffs = make([]int64, len(ops))
	var globalWord, globalSeq, fileWord, fileSeq []int
	for i, op := range ops {
		folds[i] = op.NewFold(env)
		switch {
		case op.Scope() == analytics.ScopeGlobal && op.Keys() == analytics.KeyWords:
			globalWord = append(globalWord, i)
		case op.Scope() == analytics.ScopeGlobal:
			globalSeq = append(globalSeq, i)
		case op.Keys() == analytics.KeyWords:
			fileWord = append(fileWord, i)
		default:
			fileSeq = append(fileSeq, i)
		}
	}
	// Folds read the scratch at their first delivery, not before: the
	// sequence order is ranked only for a batch that has a sequence op.
	x.ws.folds.SeqOrder = analytics.KeyOrder{}
	if len(globalSeq)+len(fileSeq) > 0 {
		x.ws.folds.SeqOrder = x.e.seqOrder()
	}

	if len(globalWord)+len(globalSeq) > 0 {
		var gw, gs *kcounter
		if len(globalWord) > 0 {
			if gw, err = x.newKCounter(x.e.globalBound(), analytics.KeyWords, analytics.ScopeGlobal); err != nil {
				return nil, nil, err
			}
		}
		if len(globalSeq) > 0 {
			bound := x.e.seqCap(x.e.meta(0).expLen())
			if gs, err = x.newKCounter(bound, analytics.KeySequences, analytics.ScopeGlobal); err != nil {
				return nil, nil, err
			}
		}
		var emit func(word uint32, count uint64) error
		if gw != nil {
			emit = func(w uint32, count uint64) error { return x.add(gw, uint64(w), count) }
		}
		// One pass propagates the weights; word emission rides along for
		// free because the body read fetches subrules and words together.
		if err := x.topDownPass(emit); err != nil {
			return nil, nil, err
		}
		for _, i := range globalWord {
			resultOffs[i] = gw.off
			if err := folds[i].Global(gw); err != nil {
				return nil, nil, err
			}
		}
		if gs != nil {
			// §IV-D decomposition: global sequence counts are each rule's
			// local table scaled by the corpus-wide weight the pass above
			// left behind, plus the root's runs at weight 1.
			if err := x.addWeightedLocals(gs, nil); err != nil {
				return nil, nil, err
			}
			for doc := uint32(0); doc < x.e.numFiles; doc++ {
				if err := x.mergeRun(gs, doc); err != nil {
					return nil, nil, err
				}
			}
			// The root's share is one operation, as any rule's table is.
			if err := x.commit(); err != nil {
				return nil, nil, err
			}
			for _, i := range globalSeq {
				resultOffs[i] = gs.off
				if err := folds[i].Global(gs); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	if len(fileWord)+len(fileSeq) > 0 {
		err := x.perFilePass(len(fileWord) > 0, len(fileSeq) > 0,
			func(doc uint32, wordC, seqC *kcounter) error {
				for _, i := range fileWord {
					if err := folds[i].File(doc, wordC); err != nil {
						return err
					}
				}
				for _, i := range fileSeq {
					if err := folds[i].File(doc, seqC); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
	}

	results = make([]any, len(ops))
	for i := range ops {
		if results[i], err = folds[i].Finish(); err != nil {
			return nil, nil, err
		}
	}
	return results, resultOffs, nil
}

// checkSequences rejects a batch with a sequence op on an engine initialized
// without sequence support.
func (e *Engine) checkSequences(ops []analytics.Op) error {
	for _, op := range ops {
		if op.Keys() == analytics.KeySequences && !e.seqEnabled {
			return ErrNoSequences
		}
	}
	return nil
}

// RunOps implements analytics.Executor: it executes the batch in one
// traversal phase over this engine's pool, fused — body reads and weight
// propagation are shared among compatible ops.  results[i] corresponds to
// ops[i] with the op's canonical result type.  The last op's task and result
// table are what the phase commit records — the same durable state a
// sequential run of the batch would leave.
func (e *Engine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	if err := e.checkSequences(ops); err != nil {
		return nil, err
	}
	span, err := e.beginTraversal()
	if err != nil {
		return nil, errEngine("run ops", err)
	}
	results, offs, err := e.run.runPlan(ops)
	if err != nil {
		return nil, errEngine("run ops", err)
	}
	last := len(ops) - 1
	if err := e.endTraversal(span, ops[last].Task(), offs[last]); err != nil {
		return nil, errEngine("run ops", err)
	}
	return results, nil
}

var _ analytics.Executor = (*Engine)(nil)
