package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
	"github.com/text-analytics/ntadoc/internal/pstruct"
)

// Engine is the N-TADOC analytics engine.  After initialization the grammar
// lives entirely in the NVM pool; analytics read only pool-resident
// structures, so every access is charged by the device cost model.  One
// Engine is one shard of a ShardedEngine — the traversal kernel over one
// pruned grammar in one pool; it implements analytics.Executor over that
// pool alone.
type Engine struct {
	opts Options
	dev  *nvm.SimDevice
	pool *pmem.Pool
	d    *dict.Dictionary

	numRules    uint32
	numWords    uint32
	numFiles    uint32
	bodySymbols int64 // total rule-body symbols; planner input, pool-durable
	mergeWork   int64 // bottom-up list-merge entries; planner input, pool-durable

	metaAcc nvm.Accessor
	rootAcc nvm.Accessor // u64 length + ordered root symbols (u32 each)
	rootLen int64
	topoAcc nvm.Accessor // u32 per rule, topological order

	seqEnabled  bool
	seqList     []analytics.Seq // DRAM sequence dictionary: ID -> sequence
	seqRankOnce sync.Once
	seqRank     analytics.KeyOrder // wire order of seqList's IDs (see seqOrder)
	localsAcc   nvm.Accessor       // u64 per rule: local-window table offset
	runsAcc     nvm.Accessor       // u64 per file: its root run's offset (0 none)

	initTop       int64 // pool watermark at the end of initialization
	distinctWords int64 // distinct word IDs across all rule bodies

	initSpan metrics.Span
	lastTrav metrics.Span
	meter    *metrics.Meter // modeled CPU time

	oplog *opLog // non-nil in OpLevel mode
	// replayTable is the table the first entry replayed at Reopen targeted
	// (0 when nothing replayed): what ReplayedCounts reads before any
	// traversal has committed a result.
	replayTable int64

	ingest *ingestState // non-nil when Options.IngestCap > 0

	// travTables registers the bounded tables of the current traversal by
	// pool offset, for operation-level log compaction and replay;
	// travDirty marks those mutated since the last log compaction.
	travTables map[int64]counterTable
	travDirty  map[int64]bool

	dramExtra int64 // DRAM estimate of engine-held maps beyond the pool

	updates int64 // counter mutations made on the task path (see PersistCounts)

	// run is the engine's persistent-path execution context: the operation
	// kernel bound to the pool structures and the engine meter.  Query
	// sessions carry their own exec bound to session-local state instead.
	run exec
}

// New builds an engine from a compressed grammar: it sizes and creates the
// simulated device, then runs the initialization phase (§IV-A) — pruning
// with pool management, bottom-up summation, structure layout, optional
// sequence preprocessing — and checkpoints.  The returned engine is ready
// for graph traversal.
func New(g *cfg.Grammar, d *dict.Dictionary, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	meter := &metrics.Meter{}
	span := metrics.Start(nil, nil)

	prep, err := preprocess(g, opts)
	if err != nil {
		return nil, err
	}
	chargePreprocess(meter, g, prep, opts)
	size := estimatePoolSize(g, prep, opts)

	var dev *nvm.SimDevice
	model := nvm.ModelFor(opts.Kind)
	if opts.Model != nil {
		model = *opts.Model
	}
	switch {
	case opts.Device != nil:
		dev = opts.Device
	case opts.Path != "":
		dev, err = nvm.Open(opts.Kind, opts.Path, size)
		if err != nil {
			return nil, err
		}
	default:
		dev = nvm.NewWithModel(opts.Kind, size, model)
	}
	// A device made here is released here when the build fails; an injected
	// one stays its caller's.
	fail := func(err error) (*Engine, error) {
		if opts.Device == nil {
			if derr := dev.Discard(); derr != nil {
				err = errors.Join(err, derr)
			}
		}
		return nil, err
	}
	pool, err := pmem.Create(dev, pmem.Options{
		LogCap:     opts.OpLogCap,
		Shard:      opts.ShardIndex,
		ShardCount: opts.ShardCount,
		Tag:        opts.BuildTag,
	})
	if err != nil {
		return fail(err)
	}
	e := &Engine{
		opts:     opts,
		dev:      dev,
		pool:     pool,
		d:        d,
		meter:    meter,
		numRules: uint32(len(g.Rules)),
		numWords: g.NumWords,
		numFiles: g.NumFiles,
	}
	e.bodySymbols, e.mergeWork = planFeatures(g)
	e.run = exec{e: e, meter: meter, ws: &workspace{}}
	if err := e.initialize(g, prep); err != nil {
		return fail(err)
	}
	// The span deliberately covers preprocessing too: the paper's
	// initialization time includes reading and preparing the dataset.
	span.Stop()
	e.initSpan = metrics.Span{
		Wall:     span.Wall,
		Device:   dev.Stats(),
		CPUNanos: meter.Nanos(),
	}
	return e, nil
}

// chargePreprocess records the modeled CPU cost of the DRAM-side
// initialization work: the grammar walks behind the topological order,
// degrees, bounds and expansion lengths, and — for sequence engines — the
// bottom-up n-gram merges and interning, which dominate (Table II's large
// sequence-task initialization times).
func chargePreprocess(meter *metrics.Meter, g *cfg.Grammar, p *prepState, opts Options) {
	var bodySyms int64
	for _, b := range g.Rules {
		bodySyms += int64(len(b))
	}
	// Four linear grammar passes (topo, degrees, bounds, expansion
	// lengths) plus Algorithm 1's bucket pass per rule.
	meter.Charge(bodySyms*5, metrics.CostScanToken)
	if opts.Sequences {
		if p.infos != nil {
			// ComputeSeqInfo merges each referenced rule's count table
			// into its parent once per occurrence (bottom-up strategy).
			meter.Charge(analytics.SeqMergeEntries(p.infos, g.Rules...), metrics.CostMergeEntry)
		}
		meter.Charge(bodySyms*2, metrics.CostScanToken) // edge + local walks
		localEntries := int64(p.rootWindows)
		for _, local := range p.locals {
			localEntries += int64(len(local))
		}
		meter.Charge(localEntries+int64(len(p.seqList)), metrics.CostSeqOp)
	}
}

// prepState carries the DRAM-side preprocessing that feeds initialization.
type prepState struct {
	order         []uint32
	inDeg         []uint32
	outDeg        []uint32
	bounds        []int64
	expLens       []int64
	distinctWords int64
	infos         []*analytics.SeqInfo       // cumulative summaries; nil unless bottom-up
	locals        []map[analytics.Seq]uint64 // per rule; the root's is nil (see runs)
	runs          [][]uint32                 // per file: its root run as stored (nil: none)
	rootWindows   int                        // distinct windows of the root
	seqIDs        map[analytics.Seq]uint32   // forward map; initialization only
	seqList       []analytics.Seq
	segs          [][]cfg.Symbol
}

func preprocess(g *cfg.Grammar, opts Options) (*prepState, error) {
	p := &prepState{}
	var err error
	p.order, err = g.TopoOrder()
	if err != nil {
		return nil, err
	}
	p.inDeg, p.outDeg = g.Degrees()
	p.bounds, err = analytics.UpperBounds(g)
	if err != nil {
		return nil, err
	}
	p.expLens = expansionLengths(g, p.order)
	p.segs = analytics.FileSegments(g)
	seen := make(map[uint32]struct{})
	for _, body := range g.Rules {
		for _, s := range body {
			if s.IsWord() {
				seen[s.WordID()] = struct{}{}
			}
		}
	}
	p.distinctWords = int64(len(seen))
	if opts.Sequences {
		// Head/tail edges suffice for local-window counting; the expensive
		// cumulative count merge is only performed when the bottom-up
		// per-file strategy will consume its tables.  The planner's decision
		// here commits the durable table layout, so resolveStrategy must
		// reach the same answer from the same shape — both are pure
		// functions of (files, rules, body symbols, merge work).
		bottomUp := strategyForGrammar(g, opts) == BottomUp
		var edges []*analytics.SeqInfo
		if bottomUp {
			p.infos, err = analytics.ComputeSeqInfo(g)
			if err != nil {
				return nil, err
			}
			edges = p.infos
		} else {
			edges, err = analytics.ComputeEdgeInfo(g)
			if err != nil {
				return nil, err
			}
		}
		// Local windows per rule: each window of the corpus belongs to
		// exactly one rule body, so weighted locals reproduce global and
		// per-file counts without cumulative merging at traversal time.
		// The root's windows are stored per file instead (fileRuns).
		p.locals = make([]map[analytics.Seq]uint64, len(g.Rules))
		for ri := 1; ri < len(g.Rules); ri++ {
			p.locals[ri] = analytics.BodySpanningCounts(g.Rules[ri], edges)
		}
		// Interning: the weighted-locals decomposition covers every
		// sequence of the corpus, so the root's windows and the rules'
		// locals are the complete dictionary.  Keys are interned in sorted
		// order, the root's first, then each rule's new ones: ID assignment
		// fixes the durable table layouts, so it must not inherit Go map
		// iteration order or modeled device stats would vary per run.
		p.runs, p.seqList, p.seqIDs = fileRuns(g, edges)
		p.rootWindows = len(p.seqList)
		var keys []analytics.Seq
		for _, local := range p.locals[1:] {
			keys = keys[:0]
			for q := range local {
				if _, ok := p.seqIDs[q]; !ok {
					keys = append(keys, q)
				}
			}
			slices.SortFunc(keys, analytics.CompareSeq)
			for _, q := range keys {
				p.seqIDs[q] = uint32(len(p.seqList))
				p.seqList = append(p.seqList, q)
			}
		}
	}
	return p, nil
}

// fileRuns walks the root once and returns each file's run as stored — the
// windows its segment spans: u32 n, then n (sequence ID, count) pairs in
// ascending ID order — with the root's share of the interning: its distinct
// windows, sorted (the first IDs), and the forward map over them.  Sorting
// the distinct windows assigns the IDs; two counting passes then group each
// file's windows by ID for run-length encoding, with no per-file map.
func fileRuns(g *cfg.Grammar, edges []*analytics.SeqInfo) (runs [][]uint32, distinct []analytics.Seq, ids map[analytics.Seq]uint32) {
	type window struct{ n, file uint32 } // n: the window's first-seen number
	hint := len(g.Rules[0])              // about one window starts at each root symbol
	ids = make(map[analytics.Seq]uint32, hint)
	distinct = make([]analytics.Seq, 0, hint)
	walk := make([]window, 0, hint)
	analytics.SpanningWindows(g.Rules[0], edges, func(f int, q analytics.Seq) {
		if f >= int(g.NumFiles) {
			return // past the last separator is no file
		}
		n, ok := ids[q]
		if !ok {
			n = uint32(len(distinct))
			ids[q] = n
			distinct = append(distinct, q)
		}
		walk = append(walk, window{n, uint32(f)})
	})
	slices.SortFunc(distinct, analytics.CompareSeq)
	rank := make([]uint32, len(distinct)) // first-seen number -> ID
	for id, q := range distinct {
		rank[ids[q]], ids[q] = uint32(id), uint32(id)
	}
	walk = countingSort(walk, len(distinct), func(w window) uint32 { return rank[w.n] })
	walk = countingSort(walk, int(g.NumFiles), func(w window) uint32 { return w.file })
	runs = make([][]uint32, g.NumFiles)
	flat := make([]uint32, 0, 2*len(distinct)+int(g.NumFiles))
	for i := 0; i < len(walk); {
		f, from := walk[i].file, len(flat)
		flat = append(flat, 0)
		for i < len(walk) && walk[i].file == f {
			j := i + 1
			for j < len(walk) && walk[j] == walk[i] {
				j++
			}
			flat = append(flat, rank[walk[i].n], uint32(j-i))
			i = j
		}
		flat[from] = uint32(len(flat)-from-1) / 2
		runs[f] = flat[from:len(flat):len(flat)]
	}
	return runs, distinct, ids
}

// countingSort returns xs stably ordered by key, every key below n.
func countingSort[T any](xs []T, n int, key func(T) uint32) []T {
	next := make([]int, n+1)
	for _, x := range xs {
		next[key(x)+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	out := make([]T, len(xs))
	for _, x := range xs {
		out[next[key(x)]] = x
		next[key(x)]++
	}
	return out
}

// expansionLengths computes each rule's expanded token count.
func expansionLengths(g *cfg.Grammar, order []uint32) []int64 {
	lens := make([]int64, len(g.Rules))
	for i := len(order) - 1; i >= 0; i-- {
		ri := order[i]
		var n int64
		for _, s := range g.Rules[ri] {
			switch {
			case s.IsWord():
				n++
			case s.IsRule():
				n += lens[s.RuleIndex()]
			}
		}
		lens[ri] = n
	}
	return lens
}

// tableBound clamps a word-list bound to what is actually attainable: a
// list can never exceed the vocabulary or the expansion length.
func tableBound(bound, expLen int64, numWords uint32) int64 {
	b := bound
	if int64(numWords) < b {
		b = int64(numWords)
	}
	if expLen < b {
		b = expLen
	}
	if b < 1 {
		b = 1
	}
	return b
}

// PoolEstimate returns the pool bytes an engine over g with the given
// options will need (before slack): the harness uses it to size block-device
// page-cache budgets relative to the working set, as the paper's absolute
// memory budget implicitly did.
func PoolEstimate(g *cfg.Grammar, opts Options) (int64, error) {
	opts = opts.withDefaults()
	p, err := preprocess(g, opts)
	if err != nil {
		return 0, err
	}
	return estimatePoolSize(g, p, opts), nil
}

// estimatePoolSize computes the pool capacity needed for initialization plus
// the largest traversal working set, with slack.
func estimatePoolSize(g *cfg.Grammar, p *prepState, opts Options) int64 {
	nRules := int64(len(g.Rules))
	size := int64(pmem.HeaderSize) + opts.OpLogCap // pool header + tx log
	if opts.IngestCap > 0 {
		size += ingestHeaderSize + opts.IngestCap
	}
	size += nRules * metaSize
	for _, body := range g.Rules {
		size += int64(len(body))*8 + 16 // pruned pairs or raw symbols
	}
	if opts.Scatter {
		size += nRules * 256
	}
	size += 8 + int64(len(g.Rules[0]))*4 // root body
	size += nRules * 4                   // topo order
	size += pstruct.QueueBytes(nRules)
	// Global result counter (bounded by the words that actually occur).
	gb := tableBound(p.bounds[0], p.expLens[0], g.NumWords)
	if p.distinctWords > 0 && p.distinctWords < gb {
		gb = p.distinctWords
	}
	size += pstruct.HashTableBytes(gb)
	// Bottom-up word-list tables.
	for ri := range g.Rules {
		size += pstruct.HashTableBytes(tableBound(p.bounds[ri], p.expLens[ri], g.NumWords))
	}
	// Per-file counters: scratch one region holds file after file, so the
	// largest file's pair, not their sum.
	var perFile int64
	for _, seg := range p.segs {
		var segBound, segLen int64
		for _, s := range seg {
			if s.IsWord() {
				segBound++
				segLen++
			} else if s.IsRule() {
				segBound += p.bounds[s.RuleIndex()]
				segLen += p.expLens[s.RuleIndex()]
			}
		}
		n := pstruct.HashTableBytes(tableBound(segBound, segLen, g.NumWords))
		if opts.Sequences {
			n += pstruct.HashTableBytes(segLen) // per-file sequence counter
		}
		perFile = max(perFile, n)
	}
	size += perFile
	if opts.Sequences {
		size += 8 + int64(len(p.seqList))*12
		// Per-rule tables as initSequences writes them: none for the root,
		// none for an empty one (edge-only mode has no cumulative tables).
		size += nRules * 8 // local table offset array
		for ri := 1; ri < len(g.Rules); ri++ {
			if p.infos != nil && len(p.infos[ri].Counts) > 0 {
				size += pstruct.HashTableBytes(int64(len(p.infos[ri].Counts)))
			}
			if len(p.locals[ri]) > 0 {
				size += pstruct.HashTableBytes(int64(len(p.locals[ri])))
			}
		}
		// The root's runs, exactly, behind their per-file offset array.
		size += int64(len(p.runs)) * 8
		for _, run := range p.runs {
			size += int64(len(run)) * 4
		}
		// The global sequence counter a traversal allocates.
		size += pstruct.HashTableBytes(min(p.expLens[0], int64(len(p.seqList))))
	}
	if opts.NoBounds {
		size *= 4 // growable reconstruction garbage
	}
	if opts.Persistence == OpLevel {
		size += opts.OpLogCap
	}
	return size + int64(float64(size)*poolSlack) + 4096
}

// poolSlack is the extra pool capacity fraction beyond the estimate.
const poolSlack = 0.5

// initialize is the initialization phase: it lays out every pool structure
// and checkpoints.
func (e *Engine) initialize(g *cfg.Grammar, p *prepState) error {
	pool := e.pool

	// Rule metadata array.
	metaAcc, err := pool.AllocZeroed(int64(e.numRules)*metaSize, 64)
	if err != nil {
		return err
	}
	e.metaAcc = metaAcc
	pool.SetRoot(rootMeta, metaAcc.Base())
	pool.SetRoot(rootNumRules, int64(e.numRules))
	pool.SetRoot(rootNumWords, int64(e.numWords))
	pool.SetRoot(rootNumFiles, int64(e.numFiles))
	e.distinctWords = p.distinctWords
	pool.SetRoot(rootDistinct, p.distinctWords)
	// The planner's shape input must survive recovery: a recovered engine
	// re-derives the traversal direction its sequence tables were laid out
	// for from exactly these slots.
	pool.SetRoot(rootBodySyms, e.bodySymbols)
	pool.SetRoot(rootMergeWork, e.mergeWork)

	// Static metadata.
	for ri := range g.Rules {
		m := e.meta(uint32(ri))
		m.setInDeg(p.inDeg[ri])
		m.setOutDeg(p.outDeg[ri])
		m.setBound(p.bounds[ri])
		m.setExpLen(p.expLens[ri])
	}

	// Rule bodies: pruned (Algorithm 1) or raw (ablation), laid out in
	// topological order for traversal locality — or scattered (ablation).
	if err := e.writeBodies(g, p); err != nil {
		return err
	}

	// Ordered root body for file segmentation.
	rootBody := g.Rules[0]
	rootAcc, err := pool.Alloc(8+int64(len(rootBody))*4, 8)
	if err != nil {
		return err
	}
	rootAcc.PutUint64(0, uint64(len(rootBody)))
	syms := make([]uint32, len(rootBody))
	for i, s := range rootBody {
		syms[i] = uint32(s)
	}
	rootAcc.PutUint32s(8, syms)
	e.rootAcc = rootAcc
	e.rootLen = int64(len(rootBody))
	pool.SetRoot(rootRootBody, rootAcc.Base())

	// Topological order.
	topoAcc, err := pool.Alloc(int64(e.numRules)*4, 8)
	if err != nil {
		return err
	}
	topoAcc.PutUint32s(0, p.order)
	e.topoAcc = topoAcc
	pool.SetRoot(rootTopo, topoAcc.Base())

	// Sequence structures.
	if e.opts.Sequences {
		if err := e.initSequences(p); err != nil {
			return err
		}
	}

	// Operation-level redo log region.
	if e.opts.Persistence == OpLevel {
		logAcc, err := pool.Alloc(e.opts.OpLogCap, 64)
		if err != nil {
			return err
		}
		if e.oplog, err = createOpLog(logAcc, pool.Epoch()); err != nil {
			return err
		}
		pool.SetRoot(rootOpLog, logAcc.Base())
	}

	// Append-log region for online ingestion, reserved below the
	// initialization watermark so traversals — which truncate the pool back
	// to initTop — can never reclaim it.  Only the 64-byte region header
	// needs a defined initial state: records are CRC-framed and invisible
	// until the header's committed watermark covers them.
	if e.opts.IngestCap > 0 {
		ingAcc, err := pool.Alloc(ingestHeaderSize+e.opts.IngestCap, 64)
		if err != nil {
			return err
		}
		ingAcc.WriteBytes(0, make([]byte, ingestHeaderSize))
		pool.SetRoot(rootIngest, ingAcc.Base())
		ingAcc.PutUint64(ingOffCap, uint64(ingAcc.Size()-ingestHeaderSize))
		e.ingest = newIngestState(e, ingAcc, g)
	}

	e.initTop = pool.Allocated()
	pool.SetRoot(rootInitTop, e.initTop)
	return pool.Checkpoint(phaseInit)
}

// writeBodies implements Algorithm 1 across all rules.
func (e *Engine) writeBodies(g *cfg.Grammar, p *prepState) error {
	// Layout order: topological for locality, or shuffled for the Scatter
	// ablation.
	layout := make([]uint32, len(p.order))
	copy(layout, p.order)
	if e.opts.Scatter {
		r := rand.New(rand.NewSource(0x5ca7))
		r.Shuffle(len(layout), func(i, j int) { layout[i], layout[j] = layout[j], layout[i] })
	}
	var pad []byte
	rng := rand.New(rand.NewSource(0x9ad))
	for _, ri := range layout {
		if e.opts.Scatter {
			// Random padding breaks granule adjacency between rules.
			if pad == nil {
				pad = make([]byte, 256)
			}
			if n := int64(rng.Intn(256)); n > 0 {
				if _, err := e.pool.Alloc(n, 1); err != nil {
					return err
				}
			}
		}
		if err := e.writeOneBody(g, ri); err != nil {
			return err
		}
	}
	return nil
}

// writeOneBody writes rule ri's body at the pool top and records it in the
// metadata, following Algorithm 1: bucket-count subrules and words, then
// write (id, freq) pairs — subrules first, words after — contiguously.
func (e *Engine) writeOneBody(g *cfg.Grammar, ri uint32) error {
	body := g.Rules[ri]
	m := e.meta(ri)
	if e.opts.NoPruning {
		// Raw mode: the untrimmed symbol sequence.
		acc, err := e.pool.Alloc(int64(len(body))*4, 4)
		if err != nil {
			return err
		}
		syms := make([]uint32, len(body))
		for i, s := range body {
			syms[i] = uint32(s)
		}
		acc.PutUint32s(0, syms)
		m.setBodyOff(acc.Base())
		m.setSubCount(uint32(len(body)))
		m.setWordCount(0)
		return nil
	}
	subs, words := pruneRule(body)
	// Compact pair encoding: the common frequency-1 pair is a bare ID;
	// bit 31 (never set in a rule index or word ID) marks "frequency
	// follows".  A 4-byte length prefix lets the reader bulk-fetch the
	// body in one device access.
	flat := make([]uint32, 1, 1+(len(subs)+len(words))*2)
	appendPairs := func(pairs []pair) {
		for _, pr := range pairs {
			if pr.freq == 1 {
				flat = append(flat, pr.id)
			} else {
				flat = append(flat, pr.id|freqFollows, pr.freq)
			}
		}
	}
	appendPairs(subs)
	appendPairs(words)
	flat[0] = uint32(len(flat) - 1)
	acc, err := e.pool.Alloc(int64(len(flat))*4, 4)
	if err != nil {
		return err
	}
	acc.PutUint32s(0, flat)
	m.setBodyOff(acc.Base())
	m.setSubCount(uint32(len(subs)))
	m.setWordCount(uint32(len(words)))
	return nil
}

// pruneRule is the bucket-counting step of Algorithm 1: it trims a body to
// its distinct subrules and words with frequencies, in ascending ID order
// for determinism.  Separators are dropped (they carry no analytics weight;
// file structure is preserved by the ordered root body).
func pruneRule(body []cfg.Symbol) (subs, words []pair) {
	subBuckets := make(map[uint32]uint32)
	wordBuckets := make(map[uint32]uint32)
	for _, s := range body {
		switch {
		case s.IsRule():
			subBuckets[s.RuleIndex()]++
		case s.IsWord():
			wordBuckets[s.WordID()]++
		}
	}
	subs = bucketPairs(subBuckets)
	words = bucketPairs(wordBuckets)
	return subs, words
}

func bucketPairs(buckets map[uint32]uint32) []pair {
	out := make([]pair, 0, len(buckets))
	for id, f := range buckets {
		out = append(out, pair{id: id, freq: f})
	}
	slices.SortFunc(out, func(a, b pair) int { return cmp.Compare(a.id, b.id) })
	return out
}

// initSequences writes the sequence dictionary, the per-rule n-gram tables
// and the root's runs (§IV-D).
func (e *Engine) initSequences(p *prepState) error {
	pool := e.pool
	e.seqEnabled = true
	e.seqList = p.seqList
	e.dramExtra += metrics.SliceBytes(len(p.seqList), 12)

	// Sequence dictionary: count + 12-byte records; lets recovery rebuild
	// seqList without the original grammar.
	dictAcc, err := pool.Alloc(8+int64(len(p.seqList))*12, 8)
	if err != nil {
		return err
	}
	dictAcc.PutUint64(0, uint64(len(p.seqList)))
	flat := make([]uint32, len(p.seqList)*3)
	for i, q := range p.seqList {
		flat[i*3], flat[i*3+1], flat[i*3+2] = q[0], q[1], q[2]
	}
	dictAcc.PutUint32s(8, flat)
	pool.SetRoot(rootSeqDict, dictAcc.Base())

	// The root's windows, one run per file (fileRuns), behind a u64 offset
	// per file (0: the file spans no window).
	runsAcc, err := pool.AllocZeroed(int64(len(p.runs))*8, 8)
	if err != nil {
		return err
	}
	e.runsAcc = runsAcc
	pool.SetRoot(rootRuns, runsAcc.Base())
	for f, run := range p.runs {
		if run == nil {
			continue
		}
		acc, err := pool.Alloc(int64(len(run))*4, 4)
		if err != nil {
			return err
		}
		acc.PutUint32s(0, run)
		runsAcc.PutUint64(int64(f)*8, uint64(acc.Base()))
	}

	// Per-rule cumulative n-gram tables keyed by sequence ID, built only
	// when the bottom-up per-file strategy will consume them.  The root
	// (rule 0) gets none: its counts are the global result, recomputed at
	// traversal.
	for ri, info := range p.infos {
		if ri == 0 || len(info.Counts) == 0 {
			continue
		}
		tbl, err := e.newTable(int64(len(info.Counts)), int64(len(p.seqList)))
		if err != nil {
			return err
		}
		for _, kv := range p.sortedSeqEntries(info.Counts) {
			if _, err := tbl.Add(uint64(kv.id), kv.count); err != nil {
				return err
			}
		}
		e.meta(uint32(ri)).setSeqOff(tbl.Base())
	}

	// Per-rule local-window tables, used by weighted sequence counting.
	// The root's are its runs, above.
	localsAcc, err := pool.AllocZeroed(int64(e.numRules)*8, 8)
	if err != nil {
		return err
	}
	e.localsAcc = localsAcc
	pool.SetRoot(rootSeqLocal, localsAcc.Base())
	for ri, local := range p.locals {
		if ri == 0 || len(local) == 0 {
			continue
		}
		tbl, err := e.newTable(int64(len(local)), int64(len(p.seqList)))
		if err != nil {
			return err
		}
		for _, kv := range p.sortedSeqEntries(local) {
			if _, err := tbl.Add(uint64(kv.id), kv.count); err != nil {
				return err
			}
		}
		localsAcc.PutUint64(int64(ri)*8, uint64(tbl.Base()))
	}
	return nil
}

// seqEntry is one interned sequence's count, keyed by its dictionary ID.
type seqEntry struct {
	id    uint32
	count uint64
}

// sortedSeqEntries converts a DRAM count map to (ID, count) pairs in
// ascending ID order.  Pool tables must be populated in a deterministic
// order: insertion order fixes each key's probe chain in the durable layout,
// and with it the read charges of every later lookup, so iterating the Go
// map directly would make modeled device stats vary from run to run.
func (p *prepState) sortedSeqEntries(counts map[analytics.Seq]uint64) []seqEntry {
	out := make([]seqEntry, 0, len(counts))
	for q, c := range counts {
		out = append(out, seqEntry{id: p.seqIDs[q], count: c})
	}
	slices.SortFunc(out, func(a, b seqEntry) int { return cmp.Compare(a.id, b.id) })
	return out
}

// counterTable is the engine-side counter surface (see pstruct.Counter).
type counterTable = pstruct.Counter

// newTable allocates a counter sized for bound entries over the given key
// space, honouring the NoBounds ablation: a dense vector counter when the key
// space is known and its flat array is no larger than the hash table's
// footprint (§IV-D offers both forms), the hash table otherwise.  Dense key
// spaces like dictionary IDs get the vector.
func (e *Engine) newTable(bound, keySpace int64) (counterTable, error) {
	if e.opts.NoBounds {
		g, err := pstruct.NewGrowableHashTable(e.pool, 4)
		if err != nil {
			return nil, err
		}
		return growableWithBase{g}, nil
	}
	if keySpace > 0 && pstruct.DenseCounterBytes(keySpace) <= pstruct.HashTableBytes(bound) {
		return pstruct.NewDenseCounter(e.pool, keySpace)
	}
	return pstruct.NewHashTable(e.pool, bound)
}

// growableWithBase adapts GrowableHashTable to the counter interface (its
// base moves on reconstruction, so it reports none and opts out of the
// persistence hooks — it exists only for the NoBounds ablation).
type growableWithBase struct{ *pstruct.GrowableHashTable }

func (g growableWithBase) Base() int64    { return -1 }
func (g growableWithBase) SyncLen()       {}
func (g growableWithBase) Flush() error   { return nil }
func (g growableWithBase) Header() uint64 { return 0 }

// Device exposes the engine's simulated device for measurement.
func (e *Engine) Device() *nvm.SimDevice { return e.dev }

// Pool exposes the engine's pool for measurement.
func (e *Engine) Pool() *pmem.Pool { return e.pool }

// InitSpan returns the initialization phase measurements.
func (e *Engine) InitSpan() metrics.Span { return e.initSpan }

// LastTraversalSpan returns the measurements of the most recent task's
// graph-traversal phase.
func (e *Engine) LastTraversalSpan() metrics.Span { return e.lastTrav }

// NVMBytes reports the pool bytes currently allocated: the storage the
// engine moved off DRAM.
func (e *Engine) NVMBytes() int64 { return e.pool.Allocated() }

// DRAMBytes estimates the engine's resident DRAM beyond the pool: for
// sequence-enabled engines this is dominated by the sequence dictionary
// mirror, which is why the paper's sequence tasks show the smallest DRAM
// savings (§VI-C).  An operation-level engine also holds its log's stage,
// which grows to its largest operation and never past half the log.
func (e *Engine) DRAMBytes() int64 {
	n := e.dramExtra + 4096
	if e.oplog != nil {
		n += int64(cap(e.oplog.stage))
	}
	return n
}

// PersistCounts is the task path's persistence work since the engine was
// built, beside the device's own flush and fence counts: the denominators
// and the log traffic the endurance figure reports.
type PersistCounts struct {
	Updates     int64 // counter mutations
	LogBytes    int64 // bytes written to the operation log's region
	Compactions int64 // times the operation log filled and restarted
}

// PersistCounts returns the engine's cumulative persistence counts.
func (e *Engine) PersistCounts() PersistCounts {
	c := PersistCounts{Updates: e.updates}
	if e.oplog != nil {
		c.LogBytes, c.Compactions = e.oplog.bytes, e.oplog.compactions
	}
	return c
}

// Close releases the device, recycling its simulation buffers — plus, for
// an appendable engine, the tail and delta engines of its current serving
// cut (one a query still has pinned goes when the pin does).  The engine
// must not be used after Close.
func (e *Engine) Close() error {
	e.abandon()
	return e.dev.Discard()
}

// abandon releases what the engine made for itself — the ingest state's
// engines, each on a device of its own — and leaves its device alone: what a
// sharded reopen that fails on a later shard owes the shards it had already
// reopened, whose devices stay the caller's.
func (e *Engine) abandon() {
	if e.ingest != nil {
		e.ingest.close()
	}
}

// resolveStrategy applies Auto selection through the cost-based planner.
// The inputs (files, rules, body symbols, merge work) are pool-durable, so a recovered
// engine resolves to the same direction its tables were laid out for.
func (e *Engine) resolveStrategy() Strategy {
	if e.opts.Strategy != Auto {
		return e.opts.Strategy
	}
	return chooseStrategy(e.numFiles, e.numRules, e.bodySymbols, e.mergeWork)
}

// Strategy reports the per-file traversal direction the cost-based planner
// resolved for this engine (never Auto) — operational introspection for the
// serving layer's /debug/engine surface.
func (e *Engine) Strategy() Strategy { return e.resolveStrategy() }

// errEngine wraps internal failures with engine context.
func errEngine(op string, err error) error {
	return fmt.Errorf("core: %s: %w", op, err)
}
