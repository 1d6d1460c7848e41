// Package tadoc implements the original TADOC analytics engine on DRAM: the
// paper's theoretical efficiency upper bound (Fig 6).  The grammar and every
// intermediate structure live in ordinary Go memory; analytics are DAG
// traversals exactly as in the VLDB'18/VLDBJ'21 TADOC papers, with both the
// top-down (weight propagation) and bottom-up (word-list merging) traversal
// strategies and the head/tail structures for sequence tasks.  Tasks plug in
// as analytics.Op folds; RunOps shares each traversal among every op in a
// batch that needs it.
package tadoc

import (
	"slices"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// Strategy selects the traversal direction for per-file tasks (§VI-E).
type Strategy int

// Traversal strategies.
const (
	// Auto picks bottom-up when the corpus has many files, top-down
	// otherwise, mirroring the paper's per-dataset choices.
	Auto Strategy = iota
	// TopDown propagates weights from the root: efficient for few files.
	TopDown
	// BottomUp merges word lists upward: efficient for many files.
	BottomUp
)

// autoFileThreshold is the file count above which Auto selects BottomUp.
const autoFileThreshold = 500

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case TopDown:
		return "top-down"
	case BottomUp:
		return "bottom-up"
	default:
		return "auto"
	}
}

// Engine is the DRAM TADOC engine.  It implements analytics.Executor.
type Engine struct {
	g        *cfg.Grammar
	d        *dict.Dictionary
	strategy Strategy
	meter    metrics.Meter

	// Cached preprocessing, built lazily.
	weights []uint64
	lists   []map[uint32]uint64
	infos   []*analytics.SeqInfo
	segs    [][]cfg.Symbol
}

var _ analytics.Executor = (*Engine)(nil)

// New creates an engine over a validated grammar.
func New(g *cfg.Grammar, d *dict.Dictionary, strategy Strategy) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Engine{g: g, d: d, strategy: strategy}, nil
}

// effectiveStrategy resolves Auto against the corpus shape.
func (e *Engine) effectiveStrategy() Strategy {
	if e.strategy != Auto {
		return e.strategy
	}
	if e.g.NumFiles > autoFileThreshold {
		return BottomUp
	}
	return TopDown
}

func (e *Engine) ensureWeights() error {
	if e.weights != nil {
		return nil
	}
	w, err := analytics.RuleWeights(e.g)
	if err != nil {
		return err
	}
	e.meter.Charge(e.bodySymbols(), metrics.CostScanToken)
	e.weights = w
	return nil
}

func (e *Engine) ensureLists() error {
	if e.lists != nil {
		return nil
	}
	l, err := analytics.RuleWordLists(e.g)
	if err != nil {
		return err
	}
	// Charge the bottom-up merge work: every subrule occurrence merges its
	// full word list into the parent.
	var mergeOps int64
	for _, body := range e.g.Rules {
		for _, s := range body {
			switch {
			case s.IsWord():
				mergeOps++
			case s.IsRule():
				mergeOps += int64(len(l[s.RuleIndex()]))
			}
		}
	}
	e.meter.Charge(mergeOps, metrics.CostMergeEntry)
	e.lists = l
	return nil
}

func (e *Engine) ensureInfos() error {
	if e.infos != nil {
		return nil
	}
	i, err := analytics.ComputeSeqInfo(e.g)
	if err != nil {
		return err
	}
	var mergeOps int64
	for _, body := range e.g.Rules {
		for _, s := range body {
			if s.IsRule() {
				mergeOps += int64(len(i[s.RuleIndex()].Counts))
			}
		}
	}
	e.meter.Charge(mergeOps, metrics.CostMergeEntry)
	e.meter.Charge(e.bodySymbols(), metrics.CostScanToken)
	e.infos = i
	return nil
}

func (e *Engine) segments() [][]cfg.Symbol {
	if e.segs == nil {
		e.segs = analytics.FileSegments(e.g)
	}
	return e.segs
}

// opEnv adapts the engine to analytics.Env.
type opEnv struct {
	e  *Engine
	si *analytics.SeqInterner
}

func (v opEnv) Dict() *dict.Dictionary       { return v.e.d }
func (v opEnv) NumFiles() int                { return len(v.e.segments()) }
func (v opEnv) SeqOf(k uint64) analytics.Seq { return v.si.SeqOf(k) }
func (v opEnv) Charge(n, perOp int64)        { v.e.meter.Charge(n, perOp) }

// globalWordCounts runs the top-down weight propagation (Figure 1e's worked
// example), the single walk behind every global word-keyed op.
func (e *Engine) globalWordCounts() (map[uint32]uint64, error) {
	if err := e.ensureWeights(); err != nil {
		return nil, err
	}
	out := make(map[uint32]uint64)
	for ri, body := range e.g.Rules {
		w := e.weights[ri]
		if w == 0 {
			continue
		}
		e.meter.Charge(int64(len(body)), metrics.CostScanToken)
		for _, s := range body {
			if s.IsWord() {
				e.meter.Charge(1, metrics.CostHashOp)
				out[s.WordID()] += w
			}
		}
	}
	return out, nil
}

// fileWordCounts computes per-file word frequencies with the configured
// traversal strategy.
func (e *Engine) fileWordCounts() ([]map[uint32]uint64, error) {
	switch e.effectiveStrategy() {
	case BottomUp:
		return e.fileWordCountsBottomUp()
	default:
		return e.fileWordCountsTopDown()
	}
}

// fileWordCountsBottomUp merges the cached per-rule word lists at the top
// level of each file segment: O(DAG + files x segment).
func (e *Engine) fileWordCountsBottomUp() ([]map[uint32]uint64, error) {
	if err := e.ensureLists(); err != nil {
		return nil, err
	}
	segs := e.segments()
	out := make([]map[uint32]uint64, len(segs))
	for fi, seg := range segs {
		counts := make(map[uint32]uint64)
		for _, s := range seg {
			switch {
			case s.IsWord():
				e.meter.Charge(1, metrics.CostHashOp)
				counts[s.WordID()]++
			case s.IsRule():
				e.meter.Charge(int64(len(e.lists[s.RuleIndex()])), metrics.CostMergeEntry)
				for w, c := range e.lists[s.RuleIndex()] {
					counts[w] += c
				}
			}
		}
		out[fi] = counts
	}
	return out, nil
}

// fileWordCountsTopDown traverses the DAG once per file, propagating weights
// through the file's reachable subgraph: O(files x DAG), the strategy the
// paper shows collapsing on many-file datasets (§VI-E).
func (e *Engine) fileWordCountsTopDown() ([]map[uint32]uint64, error) {
	order, err := e.g.TopoOrder()
	if err != nil {
		return nil, err
	}
	segs := e.segments()
	out := make([]map[uint32]uint64, len(segs))
	weight := make([]uint64, len(e.g.Rules))
	for fi, seg := range segs {
		counts := make(map[uint32]uint64)
		e.meter.Charge(int64(len(seg)), metrics.CostScanToken)
		for _, s := range seg {
			switch {
			case s.IsWord():
				counts[s.WordID()]++
			case s.IsRule():
				weight[s.RuleIndex()]++
			}
		}
		// Propagate weights down the whole DAG in topological order; the
		// full sweep per file is precisely the top-down cost profile.
		e.meter.Charge(int64(len(order)), metrics.CostScanToken) // per-rule sweep check
		for _, ri := range order {
			w := weight[ri]
			if w == 0 {
				continue
			}
			e.meter.Charge(int64(len(e.g.Rules[ri])), metrics.CostScanToken)
			for _, s := range e.g.Rules[ri] {
				switch {
				case s.IsWord():
					e.meter.Charge(1, metrics.CostHashOp)
					counts[s.WordID()] += w
				case s.IsRule():
					weight[s.RuleIndex()] += w
				}
			}
			weight[ri] = 0 // reset for the next file
		}
		out[fi] = counts
	}
	return out, nil
}

// RunOps implements analytics.Executor: ops sharing a traversal requirement
// (global word walk, per-file word counts, sequence summaries) are fed from
// one computation of it.
func (e *Engine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	env := opEnv{e: e, si: &analytics.SeqInterner{}}
	folds := make([]analytics.Fold, len(ops))
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

	if len(globalWord) > 0 {
		counts, err := e.globalWordCounts()
		if err != nil {
			return nil, err
		}
		view := analytics.WordMapCounts(counts)
		for _, i := range globalWord {
			if err := folds[i].Global(view); err != nil {
				return nil, err
			}
		}
	}
	if len(globalSeq)+len(fileSeq) > 0 {
		if err := e.ensureInfos(); err != nil {
			return nil, err
		}
	}
	if len(globalSeq) > 0 {
		// The root's cumulative sequence summary is the global result.
		e.meter.Charge(int64(len(e.infos[0].Counts)), metrics.CostSeqOp)
		view := env.si.Counts(e.infos[0].Counts)
		for _, i := range globalSeq {
			if err := folds[i].Global(view); err != nil {
				return nil, err
			}
		}
	}
	if len(fileWord) > 0 {
		perFile, err := e.fileWordCounts()
		if err != nil {
			return nil, err
		}
		for doc, counts := range perFile {
			view := analytics.WordMapCounts(counts)
			for _, i := range fileWord {
				if err := folds[i].File(uint32(doc), view); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(fileSeq) > 0 {
		for fi, seg := range e.segments() {
			segCounts := analytics.SegmentSeqCounts(seg, e.infos)
			// SegmentSeqCounts merges each top-level rule's count table plus
			// the spanning-window walk.
			var mergeOps int64
			for _, s := range seg {
				if s.IsRule() {
					mergeOps += int64(len(e.infos[s.RuleIndex()].Counts))
				}
			}
			e.meter.Charge(mergeOps+int64(len(seg)), metrics.CostMergeEntry)
			view := env.si.Counts(segCounts)
			for _, i := range fileSeq {
				if err := folds[i].File(uint32(fi), view); err != nil {
					return nil, err
				}
			}
		}
	}

	results := make([]any, len(ops))
	for i := range ops {
		var err error
		if results[i], err = folds[i].Finish(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// DRAMBytes estimates the engine's resident DRAM: the grammar plus every
// cached intermediate structure.  This is the minuend of the paper's §VI-C
// space-savings computation.
func (e *Engine) DRAMBytes() int64 {
	var total int64
	for _, body := range e.g.Rules {
		total += metrics.SliceBytes(len(body), 4)
	}
	total += metrics.SliceBytes(len(e.weights), 8)
	for _, l := range e.lists {
		total += metrics.MapBytes(len(l), 4, 8)
	}
	for _, si := range e.infos {
		if si == nil {
			continue
		}
		total += metrics.MapBytes(len(si.Counts), 12, 8)
		total += metrics.SliceBytes(len(si.Edge), 4)
	}
	return total
}

// Grammar exposes the engine's grammar for harness reporting.
func (e *Engine) Grammar() *cfg.Grammar { return e.g }

// bodySymbols returns the total symbol count across rule bodies.
func (e *Engine) bodySymbols() int64 {
	var n int64
	for _, body := range e.g.Rules {
		n += int64(len(body))
	}
	return n
}

// Meter exposes the engine's modeled CPU meter for measurement.
func (e *Engine) Meter() *metrics.Meter { return &e.meter }

func sortU32(s []uint32) {
	slices.Sort(s)
}
