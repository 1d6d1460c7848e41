package core

import (
	"encoding/binary"
	"slices"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Generic traversal machinery.  The per-task logic lives in
// internal/analytics as Op folds; this file owns the traversal phase
// lifecycle, the persistent counter protocol, the pool read helpers, and the
// two word-keyed DAG walks (top-down global, per-file in both strategies)
// that the kernel (kernel.go) drives.

// beginTraversal opens the graph-traversal phase: traversal-phase scratch
// from any previous task is released (its checkpointed results are
// superseded), and the measurement span starts.  The op-level log reset
// flushes, so device failures surface here.
func (e *Engine) beginTraversal() (*metrics.Span, error) {
	if err := e.pool.Truncate(e.initTop); err != nil {
		return nil, err
	}
	e.travTables = make(map[int64]counterTable)
	e.travDirty = make(map[int64]bool)
	if e.oplog != nil {
		if err := e.oplog.reset(e.pool.Epoch()); err != nil {
			return nil, err
		}
	}
	return metrics.Start(e.dev, e.meter), nil
}

// endTraversal commits the phase: the result table offset and task are
// recorded, and the pool is checkpointed (phase-level persistence; the
// operation-level log has already made each mutation durable).
func (e *Engine) endTraversal(span *metrics.Span, task analytics.Task, resultOff int64) error {
	offs := make([]int64, 0, len(e.travTables))
	for off := range e.travTables {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	for _, off := range offs {
		e.travTables[off].SyncLen() // counts ride along with the checkpoint flush below
	}
	if e.oplog != nil {
		// Invalidate the log before the checkpoint flushes table contents:
		// delta records are not idempotent, so valid records must never
		// coexist with durable tables that already contain them — a crash
		// between the checkpoint's data drain and its header commit would
		// otherwise double-apply every operation on recovery.  The records
		// are superseded by the checkpoint being taken either way.
		if err := e.oplog.reset(e.pool.Epoch()); err != nil {
			span.Stop()
			return err
		}
	}
	e.pool.SetRoot(rootResult, resultOff)
	e.pool.SetRoot(rootTaskID, int64(task))
	err := e.pool.Checkpoint(phaseTraversal)
	span.Stop()
	e.lastTrav = *span
	return err
}

// newCounter allocates a bounded result counter over the given key space and
// registers it for operation-level compaction and replay.  In op-level mode
// the allocation is a logged operation like any mutation: the table's header
// word goes into the open operation's frame and the table is marked dirty,
// so its durable image is always reconstructible — re-created empty by the
// replay of that entry, or flushed whole by the first compaction after it.
func (e *Engine) newCounter(bound, keySpace int64) (counterTable, int64, error) {
	tbl, err := e.newTable(bound, keySpace)
	if err != nil {
		return nil, 0, err
	}
	off := tbl.Base()
	if off >= 0 {
		e.travTables[off] = tbl
		if e.oplog != nil {
			e.travDirty[off] = true
			if err := e.oplog.appendAlloc(e, off, tbl.Header()); err != nil {
				return nil, 0, err
			}
		}
	}
	return tbl, off, nil
}

// addCount performs one counter mutation under the configured persistence
// strategy.  The order matters: the table is marked dirty and mutated in the
// volatile image before the entry is staged, so a log compaction the staging
// triggers flushes the table with the effect in it and drops the entry —
// never both durable.
func (e *Engine) addCount(tbl counterTable, tblOff int64, key, delta uint64) error {
	e.updates++
	if e.oplog != nil {
		e.travDirty[tblOff] = true
	}
	if _, err := tbl.Add(key, delta); err != nil {
		return err
	}
	if e.oplog == nil {
		return nil
	}
	if err := e.oplog.append(e, tblOff, key, delta); err != nil {
		return err
	}
	if e.opts.PerOpCommit {
		// The naive port wraps every mutation in a general-purpose PMDK
		// transaction; charge its software overhead too.
		e.meter.Charge(1, metrics.CostTxOverhead)
		return e.oplog.commit(e)
	}
	return nil
}

// opCommit seals the redo frame of one analytics operation (a rule
// processed): the operation-level persistence boundary.
func (e *Engine) opCommit() error {
	if e.oplog == nil {
		return nil
	}
	return e.oplog.commit(e)
}

// readBodyPairs reads a pruned body: subCount subrule pairs then wordCount
// word pairs, decoding the compact frequency-follows encoding after one
// bulk device read (length prefix, then the pair stream).  The five accesses
// — three metadata fields, the prefix, the stream — are one batch.
func (x *exec) readBodyPairs(r uint32) (subs, words []pair) {
	e, ws := x.e, x.ws
	m := e.meta(r).acc
	b := m.BeginReads()
	ns, nw := int64(b.Uint32(m, metaSubCount)), int64(b.Uint32(m, metaWordCount))
	if ns+nw == 0 {
		b.End()
		return nil, nil
	}
	bodyOff := int64(b.Uint64(m, metaBodyOff))
	pool := e.pool.AccessorAt(0, e.pool.Size())
	n := int64(b.Uint32(pool, bodyOff))
	ws.bodyFlat = fit(ws.bodyFlat, int(n))
	flat := ws.bodyFlat
	b.Uint32s(pool, bodyOff+4, flat)
	b.End()
	x.meter.Charge(ns+nw, metrics.CostScanToken)
	ws.bodySubs, ws.bodyWords = fit(ws.bodySubs, int(ns)), fit(ws.bodyWords, int(nw))
	subs, words = ws.bodySubs, ws.bodyWords
	pos := 0
	for i := int64(0); i < ns+nw; i++ {
		id := flat[pos]
		pos++
		freq := uint32(1)
		if id&freqFollows != 0 {
			id &^= freqFollows
			freq = flat[pos]
			pos++
		}
		if i < ns {
			subs[i] = pair{id: id, freq: freq}
		} else {
			words[i-ns] = pair{id: id, freq: freq}
		}
	}
	return subs, words
}

// symbolsAt reads n consecutive symbols at acc's offset off into buf, as one
// device read.
func symbolsAt(acc nvm.Accessor, off, n int64, buf []cfg.Symbol) []cfg.Symbol {
	out := fit(buf, int(n))
	view := acc.ReadView(off, n*4)
	for i := range out {
		out[i] = cfg.Symbol(binary.LittleEndian.Uint32(view[i*4:]))
	}
	return out
}

// readRawBody reads an untrimmed body (NoPruning ablation).
func (x *exec) readRawBody(r uint32) []cfg.Symbol {
	e := x.e
	m := e.meta(r)
	n := int64(m.subCount())
	if n == 0 {
		return nil
	}
	x.ws.rawSyms = symbolsAt(e.pool.AccessorAt(m.bodyOff(), n*4), 0, n, x.ws.rawSyms)
	x.meter.Charge(n, metrics.CostScanToken)
	return x.ws.rawSyms
}

// readRoot reads the ordered root body.  The slice is workspace memory,
// valid until the next readRoot.
func (x *exec) readRoot() []cfg.Symbol {
	e := x.e
	x.meter.Charge(e.rootLen, metrics.CostScanToken)
	x.ws.root = symbolsAt(e.rootAcc, 8, e.rootLen, x.ws.root)
	return x.ws.root
}

// readTopo reads the topological order.  The slice is workspace memory,
// valid until the next readTopo.
func (x *exec) readTopo() []uint32 {
	x.ws.topo = fit(x.ws.topo, int(x.e.numRules))
	x.e.topoAcc.Uint32s(0, x.ws.topo)
	return x.ws.topo
}

// globalBound returns the result-table bound for corpus-wide word counters:
// the Algorithm 2 bound clamped by the words that actually occur, which the
// dictionary pass knows exactly at initialization.
func (e *Engine) globalBound() int64 {
	m := e.meta(0)
	b := tableBound(m.bound(), m.expLen(), e.numWords)
	if e.distinctWords > 0 && e.distinctWords < b {
		b = e.distinctWords
	}
	return b
}

// topDownPass propagates rule weights root-down in topological order, using
// the traversal queue (§IV-B, Figure 3).  When emit is non-nil, every word
// occurrence is delivered as weight x frequency from the same body reads —
// word-keyed global ops ride along with the weight propagation for free.
// When emit is nil the pass is weight-only (the sequence decomposition's
// prerequisite); no counter is touched, so the per-rule commits are no-ops.
func (x *exec) topDownPass(emit func(word uint32, count uint64) error) error {
	e := x.e
	if x.session {
		x.ws.weights = fit(x.ws.weights, int(e.numRules))
		x.ws.remaining = fit(x.ws.remaining, int(e.numRules))
	}
	// Reset weight slots and set the remaining-parents scratch.
	for r := uint32(0); r < e.numRules; r++ {
		x.setWeight(r, 0)
		x.setRemaining(r, uint64(e.meta(r).inDeg()))
	}
	queue, err := x.newQueue(int64(e.numRules))
	if err != nil {
		return err
	}
	x.setWeight(0, 1)
	if err := queue.push(0); err != nil {
		return err
	}
	var w uint64 // weight of the rule being visited
	bump := func(sub uint32, freq uint64) error {
		x.setWeight(sub, x.weight(sub)+w*freq)
		left := x.remaining(sub) - freq
		x.setRemaining(sub, left)
		if left == 0 {
			return queue.push(sub)
		}
		return nil
	}
	for queue.len() > 0 {
		if err := x.canceled(); err != nil {
			return err
		}
		r, err := queue.pop()
		if err != nil {
			return err
		}
		w = x.weight(r)
		if e.opts.NoPruning {
			for _, s := range x.readRawBody(r) {
				switch {
				case s.IsWord():
					if emit != nil {
						if err := emit(s.WordID(), w); err != nil {
							return err
						}
					}
				case s.IsRule():
					if err := bump(s.RuleIndex(), 1); err != nil {
						return err
					}
				}
			}
			if err := x.commit(); err != nil {
				return err
			}
			continue
		}
		subs, words := x.readBodyPairs(r)
		for _, p := range subs {
			if err := bump(p.id, uint64(p.freq)); err != nil {
				return err
			}
		}
		if emit != nil {
			for _, p := range words {
				if err := emit(p.id, w*uint64(p.freq)); err != nil {
					return err
				}
			}
		}
		if err := x.commit(); err != nil {
			return err
		}
	}
	return nil
}

// segmentsOf splits the pool root body at separators.  The segment table is
// workspace memory, valid until the next segmentsOf.
func (x *exec) segmentsOf(root []cfg.Symbol) [][]cfg.Symbol {
	segs := x.ws.segs[:0]
	start := 0
	for i, s := range root {
		if s.IsSep() {
			segs = append(segs, root[start:i])
			start = i + 1
		}
	}
	x.ws.segs = segs
	return segs
}

// segBound computes a file counter's bound from per-rule metadata.
func (e *Engine) segBound(seg []cfg.Symbol) int64 {
	var bound, length int64
	for _, s := range seg {
		switch {
		case s.IsWord():
			bound++
			length++
		case s.IsRule():
			m := e.meta(s.RuleIndex())
			bound += m.bound()
			length += m.expLen()
		}
	}
	return tableBound(bound, length, e.numWords)
}

// perFilePass computes per-file counters with the configured traversal
// strategy, invoking fn with each file's word and/or sequence counter before
// its scratch is released.  A fused batch requesting both key spaces walks
// the root once and shares each file's body reads between them.
//
// On the persistent path the pass's tables are scratch (newKCounter): each
// file's counters are allocated at one mark — the pool watermark the pass
// started from, or just above bottom-up's per-rule lists — and truncated
// back to it once fn has consumed them, and the lists go when the pass
// returns.  One region serves file after file, and the pass leaves the
// watermark where it found it, so the phase checkpoint flushes none of it.
func (x *exec) perFilePass(words, seqs bool, fn func(doc uint32, wordC, seqC *kcounter) error) error {
	mark := x.scratchMark()
	var err error
	switch x.e.resolveStrategy() {
	case BottomUp:
		err = x.perFileBottomUp(words, seqs, fn)
	default:
		err = x.perFileTopDown(words, seqs, fn)
	}
	if err != nil {
		return err
	}
	return x.releaseScratch(mark)
}

// scratchMark returns the pool watermark per-file scratch is allocated
// from; zero in a session, whose counters live in its workspace.
func (x *exec) scratchMark() int64 {
	if x.session {
		return 0
	}
	return x.e.pool.Allocated()
}

// releaseScratch truncates the pool back to mark, releasing every per-file
// table allocated since scratchMark returned it.
func (x *exec) releaseScratch(mark int64) error {
	if x.session {
		return nil
	}
	return x.e.pool.Truncate(mark)
}

// ruleLists is the bottom-up pass's per-rule word lists: bounded pool tables
// on the persistent path, frozen runs in the workspace's arena in a session.
type ruleLists struct {
	tables []*kcounter
	runs   [][]kv
}

// mergeList adds every entry of rule r's list, scaled by f, into dst.
func (x *exec) mergeList(dst *kcounter, lists *ruleLists, r uint32, f uint64) error {
	if lists.runs != nil {
		run := lists.runs[r]
		x.cpu += int64(len(run)) * metrics.CostHashOp
		for _, e := range run {
			// Keys of a run were added to this scratch's key space before.
			_ = dst.dense.add(e.k, e.v*f)
		}
		return nil
	}
	return x.addScaled(dst, lists.tables[r], f)
}

// freeze copies the session counter c out of its scratch into the arena, in
// first-touch order, releasing the scratch for the next rule.
func (x *exec) freeze(c *kcounter) []kv {
	d := c.dense
	// No pass freezes more than the planner's merge work plus the root's
	// own list, so that bounds the arena.
	run := x.ws.arena.alloc(len(d.touched), x.e.mergeWork+int64(x.e.numWords))
	for i, k := range d.touched {
		run[i] = kv{uint64(k), d.vals[k]}
	}
	return run
}

// perFileBottomUp materializes every rule's word list (reverse topological
// order), then merges top-level lists per file — the fast path for many-file
// corpora.  Sequence counters reuse the per-rule n-gram tables stored at
// initialization (§IV-D), so no word lists are built unless a word-keyed op
// asked for them.
func (x *exec) perFileBottomUp(words, seqs bool, fn func(doc uint32, wordC, seqC *kcounter) error) error {
	e := x.e
	var lists ruleLists
	if words {
		topo := x.readTopo()
		if x.session {
			x.ws.arena.reset()
			x.ws.runs = fit(x.ws.runs, int(e.numRules))
			lists.runs = x.ws.runs
		} else {
			lists.tables = make([]*kcounter, e.numRules)
		}
		for i := len(topo) - 1; i >= 0; i-- {
			if err := x.canceled(); err != nil {
				return err
			}
			r := topo[i]
			m := e.meta(r)
			tbl, err := x.newKCounter(tableBound(m.bound(), m.expLen(), e.numWords), analytics.KeyWords, analytics.ScopePerFile)
			if err != nil {
				return err
			}
			if e.opts.NoPruning {
				for _, s := range x.readRawBody(r) {
					switch {
					case s.IsWord():
						if err := x.add(tbl, uint64(s.WordID()), 1); err != nil {
							return err
						}
					case s.IsRule():
						if err := x.mergeList(tbl, &lists, s.RuleIndex(), 1); err != nil {
							return err
						}
					}
				}
			} else {
				subs, ws := x.readBodyPairs(r)
				for _, p := range ws {
					if err := x.add(tbl, uint64(p.id), uint64(p.freq)); err != nil {
						return err
					}
				}
				for _, p := range subs {
					if err := x.mergeList(tbl, &lists, p.id, uint64(p.freq)); err != nil {
						return err
					}
				}
			}
			if x.session {
				lists.runs[r] = x.freeze(tbl)
			} else {
				lists.tables[r] = tbl
			}
		}
	}
	root := x.readRoot()
	mark := x.scratchMark()
	for doc, seg := range x.segmentsOf(root) {
		if err := x.canceled(); err != nil {
			return err
		}
		var wc, sc *kcounter
		if words {
			var err error
			if wc, err = x.newKCounter(e.segBound(seg), analytics.KeyWords, analytics.ScopePerFile); err != nil {
				return err
			}
			for _, s := range seg {
				switch {
				case s.IsWord():
					if err := x.add(wc, uint64(s.WordID()), 1); err != nil {
						return err
					}
				case s.IsRule():
					if err := x.mergeList(wc, &lists, s.RuleIndex(), 1); err != nil {
						return err
					}
				}
			}
		}
		if seqs {
			var err error
			if sc, err = x.newKCounter(x.seqBound(seg), analytics.KeySequences, analytics.ScopePerFile); err != nil {
				return err
			}
			if err := x.addSegmentSeqCounts(uint32(doc), seg, sc); err != nil {
				return err
			}
		}
		if err := fn(uint32(doc), wc, sc); err != nil {
			return err
		}
		if err := x.releaseScratch(mark); err != nil {
			return err
		}
	}
	return nil
}

// perFileTopDown traverses the whole DAG once per file: weights of the
// file's top-level rules propagate down the full topological order.  Cost
// is O(files x rules) even for tiny files — the §VI-E slow path.  When both
// key spaces are requested, one sweep per file feeds the word counter and
// captures the per-file rule weights that scale the local-window tables.
func (x *exec) perFileTopDown(words, seqs bool, fn func(doc uint32, wordC, seqC *kcounter) error) error {
	e := x.e
	topo := x.readTopo()
	if x.session {
		x.ws.weights = fit(x.ws.weights, int(e.numRules))
	}
	// Zero all weight slots once; the sweep per file below re-zeroes as it
	// consumes them.
	for r := uint32(0); r < e.numRules; r++ {
		x.setWeight(r, 0)
	}
	root := x.readRoot()
	var fileWeight []uint64
	if seqs {
		x.ws.fileWeight = fit(x.ws.fileWeight, int(e.numRules))
		fileWeight = x.ws.fileWeight
	}
	mark := x.scratchMark()
	for doc, seg := range x.segmentsOf(root) {
		if err := x.canceled(); err != nil {
			return err
		}
		var wc, sc *kcounter
		var err error
		if words {
			if wc, err = x.newKCounter(e.segBound(seg), analytics.KeyWords, analytics.ScopePerFile); err != nil {
				return err
			}
		}
		if seqs {
			if sc, err = x.newKCounter(x.seqBound(seg), analytics.KeySequences, analytics.ScopePerFile); err != nil {
				return err
			}
		}
		for _, s := range seg {
			switch {
			case s.IsWord():
				if words {
					if err := x.add(wc, uint64(s.WordID()), 1); err != nil {
						return err
					}
				}
			case s.IsRule():
				x.setWeight(s.RuleIndex(), x.weight(s.RuleIndex())+1)
			}
		}
		if seqs {
			clear(fileWeight)
		}
		for _, r := range topo {
			w := x.weight(r)
			if w == 0 {
				continue
			}
			if err := x.canceled(); err != nil {
				return err
			}
			x.setWeight(r, 0)
			if seqs {
				fileWeight[r] = w
			}
			if e.opts.NoPruning {
				for _, s := range x.readRawBody(r) {
					switch {
					case s.IsWord():
						if words {
							if err := x.add(wc, uint64(s.WordID()), w); err != nil {
								return err
							}
						}
					case s.IsRule():
						x.setWeight(s.RuleIndex(), x.weight(s.RuleIndex())+w)
					}
				}
				continue
			}
			subs, ws := x.readBodyPairs(r)
			for _, p := range subs {
				x.setWeight(p.id, x.weight(p.id)+w*uint64(p.freq))
			}
			if words {
				for _, p := range ws {
					if err := x.add(wc, uint64(p.id), w*uint64(p.freq)); err != nil {
						return err
					}
				}
			}
		}
		if seqs {
			if err := x.addWeightedLocals(sc, fileWeight); err != nil {
				return err
			}
			if err := x.mergeRun(sc, uint32(doc)); err != nil {
				return err
			}
		}
		if err := fn(uint32(doc), wc, sc); err != nil {
			return err
		}
		if err := x.releaseScratch(mark); err != nil {
			return err
		}
	}
	return nil
}
