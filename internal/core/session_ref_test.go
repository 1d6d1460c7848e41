package core

import (
	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// The query session's traversal as it was first written, kept as the oracle
// for the workspace-based one (session_oracle_test.go): every counter is a
// fresh Go map, every add charges the meter by itself, every device access is
// its own round trip, per-rule tables are opened into fresh objects and every
// array is allocated where it is needed.  The walks below are the production
// walks of that commit with the persistent-path branches resolved to their
// session arm; the production session must return deep-equal results, charge
// the same modeled CPU, and issue the same device accesses in the same order.

// refExec is the first-written session execution context.
type refExec struct {
	e     *Engine
	meter *metrics.Meter
	real  exec // for the unchanged bound helpers

	weights []uint64
	remains []uint64
	folds   analytics.FoldScratch

	bodyFlat  []uint32
	bodySubs  []pair
	bodyWords []pair
	rawSyms   []cfg.Symbol
}

// refSession runs ops through the reference traversal over e's pool.
type refSession struct {
	meter metrics.Meter
	run   refExec
}

func newRefSession(e *Engine) *refSession {
	s := &refSession{}
	s.run = refExec{e: e, meter: &s.meter, real: exec{e: e},
		weights: make([]uint64, e.numRules), remains: make([]uint64, e.numRules)}
	e.dev.Share()
	return s
}

func (s *refSession) RunOps(ops []analytics.Op) ([]any, error) {
	results, _, err := s.run.runPlan(ops)
	return results, err
}

// refCounter is the map form of a session counter.
type refCounter struct {
	off int64
	m   map[uint64]uint64
}

func (c *refCounter) Len() int64 { return int64(len(c.m)) }
func (c *refCounter) Range(fn func(k, v uint64) bool) {
	for k, v := range c.m {
		if !fn(k, v) {
			return
		}
	}
}

func (x *refExec) newKCounter(bound, keySpace int64) (*refCounter, error) {
	return &refCounter{off: -1, m: make(map[uint64]uint64)}, nil
}

func (x *refExec) add(c *refCounter, key, delta uint64) error {
	x.meter.Charge(1, metrics.CostHashOp)
	c.m[key] += delta
	return nil
}

func (x *refExec) commit() error   { return nil }
func (x *refExec) canceled() error { return nil }

func (x *refExec) weight(r uint32) uint64          { return x.weights[r] }
func (x *refExec) setWeight(r uint32, v uint64)    { x.weights[r] = v }
func (x *refExec) remaining(r uint32) uint64       { return x.remains[r] }
func (x *refExec) setRemaining(r uint32, v uint64) { x.remains[r] = v }

// refQueue is the DRAM FIFO form of the Kahn queue.
type refQueue struct {
	ring []uint32
	head int
}

func (x *refExec) newQueue(capacity int64) (*refQueue, error) {
	return &refQueue{ring: make([]uint32, 0, capacity)}, nil
}
func (q *refQueue) push(r uint32) error { q.ring = append(q.ring, r); return nil }
func (q *refQueue) pop() (uint32, error) {
	r := q.ring[q.head]
	q.head++
	return r, nil
}
func (q *refQueue) len() int64 { return int64(len(q.ring) - q.head) }

type refEnv struct{ x *refExec }

func (v refEnv) Dict() *dict.Dictionary         { return v.x.e.d }
func (v refEnv) NumFiles() int                  { return int(v.x.e.numFiles) }
func (v refEnv) SeqOf(key uint64) analytics.Seq { return v.x.e.seqList[key] }
func (v refEnv) Charge(n, perOp int64)          { v.x.meter.Charge(n, perOp) }

// FoldScratch declares the engine's key spaces and the word order, which
// makes the sort op alphabetical.
func (v refEnv) FoldScratch() *analytics.FoldScratch { return &v.x.folds }

func (x *refExec) perFilePass(words, seqs bool, fn func(doc uint32, wordC, seqC *refCounter) error) error {
	if x.e.resolveStrategy() == BottomUp {
		return x.perFileBottomUp(words, seqs, fn)
	}
	return x.perFileTopDown(words, seqs, fn)
}

func refSegmentsOf(root []cfg.Symbol) [][]cfg.Symbol {
	var segs [][]cfg.Symbol
	start := 0
	for i, s := range root {
		if s.IsSep() {
			segs = append(segs, root[start:i])
			start = i + 1
		}
	}
	return segs
}

func refLocalTable(e *Engine, r uint32) (pstruct.Counter, error) {
	off := int64(e.localsAcc.Uint64(int64(r) * 8))
	if off == 0 {
		return nil, nil
	}
	return pstruct.OpenCounterAt(e.pool, off)
}

func (x *refExec) readBodyPairs(r uint32) (subs, words []pair) {
	e := x.e
	m := e.meta(r)
	ns, nw := int64(m.subCount()), int64(m.wordCount())
	if ns+nw == 0 {
		return nil, nil
	}
	bodyOff := m.bodyOff()
	hdr := e.pool.AccessorAt(bodyOff, 4)
	n := int64(hdr.Uint32(0))
	if int64(cap(x.bodyFlat)) < n {
		x.bodyFlat = make([]uint32, n)
	}
	flat := x.bodyFlat[:n]
	e.pool.AccessorAt(bodyOff+4, n*4).Uint32s(0, flat)
	x.meter.Charge(ns+nw, metrics.CostScanToken)
	if int64(cap(x.bodySubs)) < ns {
		x.bodySubs = make([]pair, ns)
	}
	if int64(cap(x.bodyWords)) < nw {
		x.bodyWords = make([]pair, nw)
	}
	subs = x.bodySubs[:ns]
	words = x.bodyWords[:nw]
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

func (x *refExec) readRawBody(r uint32) []cfg.Symbol {
	e := x.e
	m := e.meta(r)
	n := int64(m.subCount())
	if n == 0 {
		return nil
	}
	if int64(cap(x.bodyFlat)) < n {
		x.bodyFlat = make([]uint32, n)
	}
	flat := x.bodyFlat[:n]
	e.pool.AccessorAt(m.bodyOff(), n*4).Uint32s(0, flat)
	x.meter.Charge(n, metrics.CostScanToken)
	if int64(cap(x.rawSyms)) < n {
		x.rawSyms = make([]cfg.Symbol, n)
	}
	out := x.rawSyms[:n]
	for i, v := range flat {
		out[i] = cfg.Symbol(v)
	}
	return out
}

func (x *refExec) readRoot() []cfg.Symbol {
	e := x.e
	x.meter.Charge(e.rootLen, metrics.CostScanToken)
	out := make([]cfg.Symbol, e.rootLen)
	flat := make([]uint32, e.rootLen)
	e.rootAcc.Uint32s(8, flat)
	for i, v := range flat {
		out[i] = cfg.Symbol(v)
	}
	return out
}

func (x *refExec) readTopo() []uint32 {
	out := make([]uint32, x.e.numRules)
	x.e.topoAcc.Uint32s(0, out)
	return out
}

func (x *refExec) topDownPass(emit func(word uint32, count uint64) error) error {
	e := x.e
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
	for queue.len() > 0 {
		if err := x.canceled(); err != nil {
			return err
		}
		r, err := queue.pop()
		if err != nil {
			return err
		}
		w := x.weight(r)
		bump := func(sub uint32, freq uint64) error {
			x.setWeight(sub, x.weight(sub)+w*freq)
			left := x.remaining(sub) - freq
			x.setRemaining(sub, left)
			if left == 0 {
				return queue.push(sub)
			}
			return nil
		}
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

func (x *refExec) perFileBottomUp(words, seqs bool, fn func(doc uint32, wordC, seqC *refCounter) error) error {
	e := x.e
	var lists []*refCounter
	if words {
		topo := x.readTopo()
		lists = make([]*refCounter, e.numRules)
		for i := len(topo) - 1; i >= 0; i-- {
			if err := x.canceled(); err != nil {
				return err
			}
			r := topo[i]
			m := e.meta(r)
			tbl, err := x.newKCounter(tableBound(m.bound(), m.expLen(), e.numWords), int64(e.numWords))
			if err != nil {
				return err
			}
			lists[r] = tbl
			if e.opts.NoPruning {
				for _, s := range x.readRawBody(r) {
					switch {
					case s.IsWord():
						if err := x.add(tbl, uint64(s.WordID()), 1); err != nil {
							return err
						}
					case s.IsRule():
						var mergeErr error
						lists[s.RuleIndex()].Range(func(k, v uint64) bool {
							mergeErr = x.add(tbl, k, v)
							return mergeErr == nil
						})
						if mergeErr != nil {
							return mergeErr
						}
					}
				}
				continue
			}
			subs, ws := x.readBodyPairs(r)
			for _, p := range ws {
				if err := x.add(tbl, uint64(p.id), uint64(p.freq)); err != nil {
					return err
				}
			}
			for _, p := range subs {
				f := uint64(p.freq)
				var mergeErr error
				lists[p.id].Range(func(k, v uint64) bool {
					mergeErr = x.add(tbl, k, v*f)
					return mergeErr == nil
				})
				if mergeErr != nil {
					return mergeErr
				}
			}
			if err := x.commit(); err != nil {
				return err
			}
		}
	}
	root := x.readRoot()
	for doc, seg := range refSegmentsOf(root) {
		if err := x.canceled(); err != nil {
			return err
		}
		var wc, sc *refCounter
		if words {
			var err error
			if wc, err = x.newKCounter(e.segBound(seg), int64(e.numWords)); err != nil {
				return err
			}
			for _, s := range seg {
				switch {
				case s.IsWord():
					if err := x.add(wc, uint64(s.WordID()), 1); err != nil {
						return err
					}
				case s.IsRule():
					var mergeErr error
					lists[s.RuleIndex()].Range(func(k, v uint64) bool {
						mergeErr = x.add(wc, k, v)
						return mergeErr == nil
					})
					if mergeErr != nil {
						return mergeErr
					}
				}
			}
			if err := x.commit(); err != nil {
				return err
			}
		}
		if seqs {
			var err error
			if sc, err = x.newKCounter(x.real.seqBound(seg), int64(len(e.seqList))); err != nil {
				return err
			}
			if err := x.addSegmentSeqCounts(uint32(doc), seg, sc); err != nil {
				return err
			}
		}
		if err := fn(uint32(doc), wc, sc); err != nil {
			return err
		}
	}
	return nil
}

func (x *refExec) perFileTopDown(words, seqs bool, fn func(doc uint32, wordC, seqC *refCounter) error) error {
	e := x.e
	topo := x.readTopo()
	for r := uint32(0); r < e.numRules; r++ {
		x.setWeight(r, 0)
	}
	root := x.readRoot()
	var fileWeight []uint64
	if seqs {
		fileWeight = make([]uint64, e.numRules)
	}
	for doc, seg := range refSegmentsOf(root) {
		if err := x.canceled(); err != nil {
			return err
		}
		var wc, sc *refCounter
		var err error
		if words {
			if wc, err = x.newKCounter(e.segBound(seg), int64(e.numWords)); err != nil {
				return err
			}
		}
		if seqs {
			if sc, err = x.newKCounter(x.real.seqBound(seg), int64(len(e.seqList))); err != nil {
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
		if words {
			if err := x.commit(); err != nil {
				return err
			}
		}
		if seqs {
			if err := x.addWeightedLocals(sc, func(r uint32) uint64 { return fileWeight[r] }); err != nil {
				return err
			}
			if err := x.mergeRun(sc, uint32(doc)); err != nil {
				return err
			}
		}
		if err := fn(uint32(doc), wc, sc); err != nil {
			return err
		}
	}
	return nil
}

// mergeRun merges file doc's stored root run map-style: the directory
// entry, the length word and the pairs are three round trips.
func (x *refExec) mergeRun(counter *refCounter, doc uint32) error {
	e := x.e
	off := int64(e.runsAcc.Uint64(int64(doc) * 8))
	if off == 0 {
		return nil
	}
	n := int64(e.pool.AccessorAt(off, 4).Uint32(0))
	flat := make([]uint32, 2*n)
	e.pool.AccessorAt(off+4, 8*n).Uint32s(0, flat)
	for i := 0; i < len(flat); i += 2 {
		if err := x.add(counter, uint64(flat[i]), uint64(flat[i+1])); err != nil {
			return err
		}
	}
	return nil
}

func (x *refExec) addSegmentSeqCounts(doc uint32, syms []cfg.Symbol, counter *refCounter) error {
	e := x.e
	for _, s := range syms {
		if !s.IsRule() {
			continue
		}
		if err := x.canceled(); err != nil {
			return err
		}
		off := e.meta(s.RuleIndex()).seqOff()
		if off == 0 {
			continue // rule has no internal n-grams
		}
		tbl, err := pstruct.OpenCounterAt(e.pool, off)
		if err != nil {
			return err
		}
		var addErr error
		tbl.Range(func(k, v uint64) bool {
			addErr = x.add(counter, k, v)
			return addErr == nil
		})
		if addErr != nil {
			return addErr
		}
		if err := x.commit(); err != nil {
			return err
		}
	}
	return x.mergeRun(counter, doc)
}

func (x *refExec) addWeightedLocals(counter *refCounter, weightOf func(r uint32) uint64) error {
	e := x.e
	for r := uint32(1); r < e.numRules; r++ {
		w := weightOf(r)
		if w == 0 {
			continue
		}
		if err := x.canceled(); err != nil {
			return err
		}
		tbl, err := refLocalTable(e, r)
		if err != nil {
			return err
		}
		if tbl == nil {
			continue
		}
		var addErr error
		tbl.Range(func(k, v uint64) bool {
			addErr = x.add(counter, k, v*w)
			return addErr == nil
		})
		if addErr != nil {
			return addErr
		}
		if err := x.commit(); err != nil {
			return err
		}
	}
	return nil
}

func (x *refExec) runPlan(ops []analytics.Op) (results []any, resultOffs []int64, err error) {
	x.folds = analytics.FoldScratch{WordKeys: int(x.e.numWords), SeqKeys: len(x.e.seqList)}
	x.folds.WordOrder.Rank, x.folds.WordOrder.Order = x.e.d.Alphabetical()
	env := refEnv{x: x}
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

	if len(globalWord)+len(globalSeq) > 0 {
		var gw, gs *refCounter
		if len(globalWord) > 0 {
			if gw, err = x.newKCounter(x.e.globalBound(), int64(x.e.numWords)); err != nil {
				return nil, nil, err
			}
		}
		if len(globalSeq) > 0 {
			if gs, err = x.newKCounter(x.e.seqCap(x.e.meta(0).expLen()), int64(len(x.e.seqList))); err != nil {
				return nil, nil, err
			}
		}
		var emit func(word uint32, count uint64) error
		if gw != nil {
			emit = func(w uint32, count uint64) error { return x.add(gw, uint64(w), count) }
		}
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
			if err := x.addWeightedLocals(gs, x.weight); err != nil {
				return nil, nil, err
			}
			for doc := uint32(0); doc < x.e.numFiles; doc++ {
				if err := x.mergeRun(gs, doc); err != nil {
					return nil, nil, err
				}
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
			func(doc uint32, wordC, seqC *refCounter) error {
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
