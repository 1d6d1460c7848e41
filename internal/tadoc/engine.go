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

// bottomUpFiles is the file count above which per-file tasks merge word
// lists bottom-up rather than propagate weights top-down per file, mirroring
// the paper's per-dataset choices (§VI-E).
const bottomUpFiles = 500

// Engine is the DRAM TADOC engine.  It implements analytics.Executor.
type Engine struct {
	g *cfg.Grammar
	d *dict.Dictionary
	// bottomUp selects the per-file traversal: word-list merging, efficient
	// for many files, or weight propagation from each file, efficient for
	// few.
	bottomUp bool
	meter    metrics.Meter
	folds    analytics.FoldScratch

	// Cached preprocessing, built lazily.
	weights []uint64
	lists   []map[uint32]uint64
	infos   []*analytics.SeqInfo
	segs    [][]cfg.Symbol
	// The corpus's sequences in CompareSeq order, a sequence's index its
	// counter key, and that index by sequence (see ensureSeqs).
	seqList []analytics.Seq
	seqIDs  map[analytics.Seq]uint32
}

var _ analytics.Executor = (*Engine)(nil)

// New creates an engine over a validated grammar.
func New(g *cfg.Grammar, d *dict.Dictionary) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Engine{g: g, d: d, bottomUp: g.NumFiles > bottomUpFiles}, nil
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
	e.meter.Charge(analytics.SeqMergeEntries(i, e.g.Rules...), metrics.CostMergeEntry)
	e.meter.Charge(e.bodySymbols(), metrics.CostScanToken)
	e.infos = i
	return nil
}

// ensureSeqs declares the sequence key space: the root's cumulative summary
// holds every sequence of the corpus, listed in CompareSeq order and ranked
// into wire order.  Like core's sequence order it is serving state, absent
// from DRAMBytes and charged nothing: the figures count the summaries it is
// read from.
func (e *Engine) ensureSeqs() error {
	if e.seqIDs != nil {
		return nil
	}
	if err := e.ensureInfos(); err != nil {
		return err
	}
	root := e.infos[0].Counts
	e.seqList = make([]analytics.Seq, 0, len(root))
	for q := range root {
		e.seqList = append(e.seqList, q)
	}
	slices.SortFunc(e.seqList, analytics.CompareSeq)
	e.seqIDs = make(map[analytics.Seq]uint32, len(e.seqList))
	for id, q := range e.seqList {
		e.seqIDs[q] = uint32(id)
	}
	e.folds.SeqKeys = len(e.seqList)
	e.folds.SeqOrder = analytics.RankSequences(e.seqList, e.d.Words())
	return nil
}

// seqCounts views a sequence-keyed count map under the engine's sequence ids:
// every window of a file is a window of the root's expansion, so the corpus
// list holds every sequence a count map can.
type seqCounts struct {
	m   map[analytics.Seq]uint64
	ids map[analytics.Seq]uint32
}

func (c seqCounts) Len() int64 { return int64(len(c.m)) }
func (c seqCounts) Range(fn func(k, v uint64) bool) {
	for q, v := range c.m {
		if !fn(uint64(c.ids[q]), v) {
			return
		}
	}
}

func (e *Engine) segments() [][]cfg.Symbol {
	if e.segs == nil {
		e.segs = analytics.FileSegments(e.g)
	}
	return e.segs
}

// opEnv adapts the engine to analytics.ScratchEnv.
type opEnv struct{ e *Engine }

func (v opEnv) Dict() *dict.Dictionary              { return v.e.d }
func (v opEnv) NumFiles() int                       { return len(v.e.segments()) }
func (v opEnv) SeqOf(k uint64) analytics.Seq        { return v.e.seqList[k] }
func (v opEnv) Charge(n, perOp int64)               { v.e.meter.Charge(n, perOp) }
func (v opEnv) FoldScratch() *analytics.FoldScratch { return &v.e.folds }

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

// fileWordCounts computes per-file word frequencies in the engine's
// traversal direction.
func (e *Engine) fileWordCounts() ([]map[uint32]uint64, error) {
	if e.bottomUp {
		return e.fileWordCountsBottomUp()
	}
	return e.fileWordCountsTopDown()
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
	e.folds.Reset()
	e.folds.WordOrder.Rank, e.folds.WordOrder.Order = e.d.Alphabetical()
	e.folds.WordKeys = len(e.folds.WordOrder.Rank)
	b := analytics.NewBatch(ops, opEnv{e})
	if b.Needs(analytics.ScopeGlobal, analytics.KeyWords) {
		counts, err := e.globalWordCounts()
		if err != nil {
			return nil, err
		}
		if err := b.Global(analytics.KeyWords, analytics.WordMapCounts(counts)); err != nil {
			return nil, err
		}
	}
	globalSeqs := b.Needs(analytics.ScopeGlobal, analytics.KeySequences)
	fileSeqs := b.Needs(analytics.ScopePerFile, analytics.KeySequences)
	if globalSeqs || fileSeqs {
		if err := e.ensureSeqs(); err != nil {
			return nil, err
		}
	}
	if globalSeqs {
		// The root's cumulative sequence summary is the global result.
		e.meter.Charge(int64(len(e.infos[0].Counts)), metrics.CostSeqOp)
		if err := b.Global(analytics.KeySequences, seqCounts{e.infos[0].Counts, e.seqIDs}); err != nil {
			return nil, err
		}
	}
	if b.Needs(analytics.ScopePerFile, analytics.KeyWords) {
		perFile, err := e.fileWordCounts()
		if err != nil {
			return nil, err
		}
		for doc, counts := range perFile {
			if err := b.File(analytics.KeyWords, uint32(doc), analytics.WordMapCounts(counts)); err != nil {
				return nil, err
			}
		}
	}
	if fileSeqs {
		for fi, seg := range e.segments() {
			segCounts := analytics.SegmentSeqCounts(seg, e.infos)
			// SegmentSeqCounts merges each top-level rule's count table plus
			// the spanning-window walk.
			e.meter.Charge(analytics.SeqMergeEntries(e.infos, seg)+int64(len(seg)), metrics.CostMergeEntry)
			if err := b.File(analytics.KeySequences, uint32(fi), seqCounts{segCounts, e.seqIDs}); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish()
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
