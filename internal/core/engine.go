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
	pool, err := pmem.Create(dev, pmem.Options{LogCap: opts.OpLogCap})
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
	e.bodySymbols, e.mergeWork = prep.bodySymbols, prep.mergeWork
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
	order         []uint32 // topological; every other pass walks it
	inDeg         []uint32
	outDeg        []uint32
	bounds        []int64
	expLens       []int64
	bodySymbols   int64 // planner input (planFeatures)
	mergeWork     int64 // planner input (planFeatures)
	distinctWords int64
	infos         []*analytics.SeqInfo // cumulative summaries; nil unless bottom-up
	locals        [][]seqEntry         // per rule: its local windows, ascending ID; the root's is nil (see runs)
	runs          [][]uint32           // per file: its root run as stored (nil: none)
	rootWindows   int                  // distinct windows of the root
	seqList       []analytics.Seq      // ID -> sequence
	seqSorted     []analytics.Seq      // every sequence in CompareSeq order; initialization only
	seqRank       []uint32             // seqSorted[i]'s ID; initialization only
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
	p.bodySymbols, p.mergeWork = planFeatures(g, p.order)
	p.segs = analytics.FileSegments(g)
	seen := make([]uint64, (g.NumWords+63)/64)
	for _, body := range g.Rules {
		for _, s := range body {
			if s.IsWord() {
				w := s.WordID()
				if seen[w/64]&(1<<(w%64)) == 0 {
					seen[w/64] |= 1 << (w % 64)
					p.distinctWords++
				}
			}
		}
	}
	if opts.Sequences {
		// Head/tail edges suffice for local-window counting; the expensive
		// cumulative count merge is only performed when the bottom-up
		// per-file strategy will consume its tables.  The planner's decision
		// here commits the durable table layout, so resolveStrategy must
		// reach the same answer from the same shape — both are pure
		// functions of (files, rules, body symbols, merge work).
		bottomUp := strategyForGrammar(g, opts, p.bodySymbols, p.mergeWork) == BottomUp
		edges := analytics.SummarizeRules(g, p.order, bottomUp)
		if bottomUp {
			p.infos = edges
		}
		p.internSequences(g, edges)
	}
	return p, nil
}

// window is one local window of a rule body, packed so that ordering
// windows by (hi, lo) orders them by (sequence, slot): hi holds the
// sequence's first two words, lo its third above the slot.  File f of the
// root is slot f, rule r (r > 0) is slot numFiles+r-1, so slots order
// windows by rule, and the root's by file.
type window struct{ hi, lo uint64 }

func (w window) seq() analytics.Seq {
	return analytics.Seq{uint32(w.hi >> 32), uint32(w.hi), uint32(w.lo >> 32)}
}

func (w window) slot() uint32 { return uint32(w.lo) }

// byteOf returns byte b of the window's 128-bit key, least significant first.
func (w window) byteOf(b int) byte {
	if b < 8 {
		return byte(w.lo >> (8 * b))
	}
	return byte(w.hi >> (8 * (b - 8)))
}

// sortWindows orders windows by (hi, lo): a least-significant-byte-first
// radix sort, which skips every byte all windows share (the high bytes of
// small word IDs and slots).  It returns the sorted slice, which is ws or a
// buffer of the same length.
func sortWindows(ws []window) []window {
	var hist [16][256]int
	for _, w := range ws {
		for b := range hist {
			hist[b][w.byteOf(b)]++
		}
	}
	buf := make([]window, len(ws))
	for b := range hist {
		h := &hist[b]
		if len(ws) == 0 || h[ws[0].byteOf(b)] == len(ws) {
			continue
		}
		pos := 0
		for v, n := range h {
			h[v] = pos
			pos += n
		}
		for _, w := range ws {
			v := w.byteOf(b)
			buf[h[v]] = w
			h[v]++
		}
		ws, buf = buf, ws
	}
	return ws
}

// internSequences counts every rule's local windows and assigns every
// sequence its ID, without a map.  Each window of the corpus belongs to
// exactly one rule body, so weighted locals reproduce global and per-file
// counts without cumulative merging at traversal time, and the root's
// windows and the rules' locals are the complete dictionary.
//
// All windows go into one array, sorted by (sequence, slot): equal windows
// become runs to count, and each sequence's first run names the first rule
// whose body holds it.  IDs go in (first rule, CompareSeq) order — the
// root's windows sorted first, then each rule's new ones sorted — a stable
// counting sort of the distinct sequences by first rule.  ID assignment
// fixes the durable table layouts, so it must not inherit any iteration
// order that varies from run to run, or modeled device stats would.  Two
// more counting sorts group the counts by slot in ascending ID order, the
// order the runs and tables are written.
func (p *prepState) internSequences(g *cfg.Grammar, edges []*analytics.SeqInfo) {
	numFiles := g.NumFiles
	ws := make([]window, 0, len(g.Rules[0])+int(p.bodySymbols))
	var (
		walker analytics.WindowWalker
		rule   uint32
	)
	emit := func(f int, q analytics.Seq) {
		slot := numFiles + rule - 1
		if rule == 0 {
			if f >= int(numFiles) {
				return // past the last separator is no file
			}
			slot = uint32(f)
		}
		ws = append(ws, window{uint64(q[0])<<32 | uint64(q[1]), uint64(q[2])<<32 | uint64(slot)})
	}
	for ri, body := range g.Rules {
		rule = uint32(ri)
		walker.Walk(body, edges, emit)
	}
	ws = sortWindows(ws)

	// One count per distinct window, keyed by its sequence's place in
	// CompareSeq order and its slot.
	type count struct{ seq, slot, n uint32 }
	var (
		counts []count
		first  []uint32 // per distinct sequence: the first rule holding it
	)
	for i := 0; i < len(ws); {
		head, d := ws[i], uint32(len(p.seqSorted))
		p.seqSorted = append(p.seqSorted, head.seq())
		if s := head.slot(); s < numFiles {
			first = append(first, 0)
		} else {
			first = append(first, s-numFiles+1)
		}
		for i < len(ws) && ws[i].hi == head.hi && ws[i].lo>>32 == head.lo>>32 {
			j := i + 1
			for j < len(ws) && ws[j] == ws[i] {
				j++
			}
			counts = append(counts, count{d, ws[i].slot(), uint32(j - i)})
			i = j
		}
	}

	// IDs: the distinct sequences stably by first rule.
	next := make([]uint32, len(g.Rules)+1)
	for _, r := range first {
		next[r+1]++
	}
	p.rootWindows = int(next[1])
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	p.seqRank = make([]uint32, len(first))
	p.seqList = make([]analytics.Seq, len(first))
	for d, r := range first {
		p.seqRank[d] = next[r]
		p.seqList[next[r]] = p.seqSorted[d]
		next[r]++
	}

	counts = countingSort(counts, len(first), func(c count) uint32 { return p.seqRank[c.seq] })
	counts = countingSort(counts, int(numFiles)+len(g.Rules)-1, func(c count) uint32 { return c.slot })
	rootCounts, _ := slices.BinarySearchFunc(counts, numFiles, func(c count, slot uint32) int { return cmp.Compare(c.slot, slot) })
	p.runs = make([][]uint32, numFiles)
	p.locals = make([][]seqEntry, len(g.Rules))
	flat := make([]uint32, 0, 2*rootCounts+int(numFiles))
	arena := make([]seqEntry, 0, len(counts)-rootCounts)
	for i := 0; i < len(counts); {
		slot := counts[i].slot
		j := i
		for j < len(counts) && counts[j].slot == slot {
			j++
		}
		if slot < numFiles {
			// A run: u32 n, then n (sequence ID, count) pairs.
			from := len(flat)
			flat = append(flat, uint32(j-i))
			for _, c := range counts[i:j] {
				flat = append(flat, p.seqRank[c.seq], c.n)
			}
			p.runs[slot] = flat[from:len(flat):len(flat)]
		} else {
			from := len(arena)
			for _, c := range counts[i:j] {
				arena = append(arena, seqEntry{id: p.seqRank[c.seq], count: uint64(c.n)})
			}
			p.locals[slot-numFiles+1] = arena[from:len(arena):len(arena)]
		}
		i = j
	}
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
	pool.SetRoot(rootShard, int64(e.opts.shardIndex)|int64(e.opts.shardCount)<<32)
	pool.SetRoot(rootBuildTag, int64(e.opts.BuildTag))

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
	var (
		pad []byte
		sc  bodyScratch
	)
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
		if err := e.writeOneBody(g, ri, &sc); err != nil {
			return err
		}
	}
	return nil
}

// bodyScratch is the working memory writeBodies lends writeOneBody, rule
// after rule.
type bodyScratch struct{ subs, words, flat []uint32 }

// writeOneBody writes rule ri's body at the pool top and records it in the
// metadata, following Algorithm 1: bucket-count subrules and words, then
// write (id, freq) pairs — subrules first, words after — contiguously.
func (e *Engine) writeOneBody(g *cfg.Grammar, ri uint32, sc *bodyScratch) error {
	body := g.Rules[ri]
	m := e.meta(ri)
	if e.opts.NoPruning {
		// Raw mode: the untrimmed symbol sequence.
		acc, err := e.pool.Alloc(int64(len(body))*4, 4)
		if err != nil {
			return err
		}
		syms := sc.flat[:0]
		for _, s := range body {
			syms = append(syms, uint32(s))
		}
		sc.flat = syms
		acc.PutUint32s(0, syms)
		m.setBodyOff(acc.Base())
		m.setSubCount(uint32(len(body)))
		m.setWordCount(0)
		return nil
	}
	// The bucket-counting step of Algorithm 1: the body trimmed to its
	// distinct subrules and words with frequencies, in ascending ID order
	// for determinism.  Separators are dropped (they carry no analytics
	// weight; file structure is preserved by the ordered root body).
	subs, words := sc.subs[:0], sc.words[:0]
	for _, s := range body {
		switch {
		case s.IsRule():
			subs = append(subs, s.RuleIndex())
		case s.IsWord():
			words = append(words, s.WordID())
		}
	}
	slices.Sort(subs)
	slices.Sort(words)
	sc.subs, sc.words = subs, words
	// Compact pair encoding: the common frequency-1 pair is a bare ID;
	// bit 31 (never set in a rule index or word ID) marks "frequency
	// follows".  A 4-byte length prefix lets the reader bulk-fetch the
	// body in one device access.
	flat := append(sc.flat[:0], 0)
	appendPairs := func(ids []uint32) (distinct uint32) {
		for i := 0; i < len(ids); distinct++ {
			j := i + 1
			for j < len(ids) && ids[j] == ids[i] {
				j++
			}
			if j-i == 1 {
				flat = append(flat, ids[i])
			} else {
				flat = append(flat, ids[i]|freqFollows, uint32(j-i))
			}
			i = j
		}
		return distinct
	}
	nsubs := appendPairs(subs)
	nwords := appendPairs(words)
	flat[0] = uint32(len(flat) - 1)
	sc.flat = flat
	acc, err := e.pool.Alloc(int64(len(flat))*4, 4)
	if err != nil {
		return err
	}
	acc.PutUint32s(0, flat)
	m.setBodyOff(acc.Base())
	m.setSubCount(nsubs)
	m.setWordCount(nwords)
	return nil
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

	// The root's windows, one run per file (internSequences), behind a u64 offset
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
		entries, err := p.sortedSeqEntries(info.Counts)
		if err != nil {
			return err
		}
		for _, kv := range entries {
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
		for _, kv := range local {
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
// ascending ID order, reading each ID from the interning sort.  Pool tables
// must be populated in a deterministic order: insertion order fixes each
// key's probe chain in the durable layout, and with it the read charges of
// every later lookup, so iterating the Go map directly would make modeled
// device stats vary from run to run.
func (p *prepState) sortedSeqEntries(counts map[analytics.Seq]uint64) ([]seqEntry, error) {
	out := make([]seqEntry, 0, len(counts))
	for q, c := range counts {
		d, ok := slices.BinarySearchFunc(p.seqSorted, q, analytics.CompareSeq)
		if !ok {
			return nil, errEngine("init", fmt.Errorf("sequence %v was never interned", q))
		}
		out = append(out, seqEntry{id: p.seqRank[d], count: c})
	}
	slices.SortFunc(out, func(a, b seqEntry) int { return cmp.Compare(a.id, b.id) })
	return out, nil
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
