package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// ShardedEngine is the scatter-gather coordinator over K >= 1 independent
// shard engines, and the one way an N-TADOC corpus is executed: an unsharded
// corpus is the one-shard set, a static corpus a shard with no delta.  Each
// shard owns a complete engine — its own grammar, simulated device, pmem
// pool, and (in operation-level mode) op log — making every shard an
// independent persistence and recovery domain.  Since the shard boundary is
// whole files, each shard's traversal is a complete run of the operation
// kernel over its slice of the corpus; the coordinator runs the shards in
// parallel goroutines and merges their results with analytics.MergeUnits
// (global ops combine counters key-wise; per-file ops place each shard's
// documents at their global positions, by the shard base or a document map).
//
// Modeled time follows the parallel execution: a phase's Total is the
// critical path (the slowest shard) plus the gather's (its slowest key-range
// part plus the coordinator's serial dispatch and stitch, or the whole merge
// when it is not cut), while device statistics sum across shards (see
// metrics.MergeParallel).
type ShardedEngine struct {
	shards []*Engine
	bases  []uint32 // global index of each shard's first document
	nfiles uint32
	d      *dict.Dictionary

	meter    metrics.Meter // coordinator-side merge CPU
	initSpan metrics.Span

	mu         sync.Mutex
	lastTrav   metrics.Span // guarded by mu
	lastTails  []int64      // guarded by mu
	lastGather int64        // guarded by mu

	// Online-ingestion coordination: appends route whole batches to the
	// least-loaded shard's durable append log, and documents are numbered
	// globally in append order — so a shard's appended documents interleave
	// globally with other shards', and each shard's serving cut carries the
	// document maps the gather merges its units under (analytics.MergeUnits).
	ingestMu sync.Mutex
	appended uint32 // guarded by ingestMu: total appended documents
	// due holds one wake-up for the Compactor, sent by an append that leaves
	// its shard's delta past the compaction thresholds.
	due chan struct{}
	// compactFailures counts failed shard compactions: the Compactor's
	// errors reach no caller, so IngestStats is where they show.
	compactFailures atomic.Uint64
}

// ErrShardMismatch reports a sharded device set whose pool stamps do not
// match the positions they were assembled in.
var ErrShardMismatch = errors.New("core: pool shard stamp does not match its position")

// ErrShardFailed reports which shard of a scatter-gather or a sharded reopen
// failed and why: the Cause chain reaches the underlying error
// (nvm.ErrFailPoint for an injected device failure, ErrNeedsReload for a
// shard image that must be rebuilt).  Callers unwrap it with errors.As to
// learn the shard.
type ErrShardFailed struct {
	Shard int
	Cause error
}

// Error implements error.
func (e *ErrShardFailed) Error() string {
	return fmt.Sprintf("core: shard %d failed: %v", e.Shard, e.Cause)
}

// Unwrap exposes the cause chain to errors.Is/As.
func (e *ErrShardFailed) Unwrap() error { return e.Cause }

// NewSharded builds one engine per shard grammar concurrently and returns
// the coordinator.  Shard grammars come from cfg.SharedSet.Materialize; all
// shards share one dictionary.  Per-shard devices are created
// automatically, or injected via opts.ShardDevices; a file-backed opts.Path
// becomes one file per shard (path + ".shardN"), except that a one-shard
// set keeps the path itself as its pool file.
func NewSharded(gs []*cfg.Grammar, d *dict.Dictionary, opts Options) (*ShardedEngine, error) {
	if len(gs) == 0 {
		return nil, errEngine("new sharded", errors.New("no shard grammars"))
	}
	if opts.ShardDevices != nil && len(opts.ShardDevices) != len(gs) {
		return nil, errEngine("new sharded", fmt.Errorf("%d devices for %d shards",
			len(opts.ShardDevices), len(gs)))
	}
	se := &ShardedEngine{
		shards: make([]*Engine, len(gs)),
		bases:  make([]uint32, len(gs)),
		d:      d,
		due:    make(chan struct{}, 1),
	}
	for i, g := range gs {
		se.bases[i] = se.nfiles
		se.nfiles += g.NumFiles
	}
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *cfg.Grammar) {
			defer wg.Done()
			o := opts
			o.shardIndex = uint32(i)
			o.shardCount = uint32(len(gs))
			o.Device = nil
			o.ShardDevices = nil
			if opts.ShardDevices != nil {
				o.Device = opts.ShardDevices[i]
			}
			if o.Path != "" && len(gs) > 1 {
				o.Path = fmt.Sprintf("%s.shard%d", opts.Path, i)
			}
			se.shards[i], errs[i] = New(g, d, o)
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Discard the devices this constructor created; injected devices
			// stay with the caller (the crash harness clones them after a
			// failed build, exactly like core.New with an injected Device).
			if opts.ShardDevices == nil {
				for _, sh := range se.shards {
					if sh != nil {
						sh.Close()
					}
				}
			}
			return nil, errEngine("new sharded", fmt.Errorf("shard %d: %w", i, err))
		}
	}
	spans := make([]metrics.Span, len(se.shards))
	for i, sh := range se.shards {
		spans[i] = sh.InitSpan()
	}
	se.initSpan = metrics.MergeParallel(spans...)
	return se, nil
}

// ReopenSharded recovers a sharded engine from its per-shard devices after
// a crash or restart: each shard recovers independently under the unsharded
// recovery contract (devs[i] carries shard i's pool).  Pool shard stamps
// are validated against the assembly order and every pool's build tag
// against opts.BuildTag, so a reordered or foreign device set fails with
// ErrShardMismatch rather than silently merging the wrong documents.  A
// shard that cannot recover fails the reopen with ErrShardFailed naming it
// (ErrNeedsReload in its chain when the image's initialization never
// completed — the caller rebuilds the shard from the compressed input); the
// per-shard infos of the shards reopened so far are returned alongside the
// error.  A successful reopen owns every device it was given, and a failed
// one none of them.
func ReopenSharded(devs []*nvm.SimDevice, d *dict.Dictionary, opts Options) (*ShardedEngine, []*RecoveryInfo, error) {
	if len(devs) == 0 {
		return nil, nil, errEngine("reopen sharded", errors.New("no shard devices"))
	}
	se := &ShardedEngine{
		shards: make([]*Engine, len(devs)),
		bases:  make([]uint32, len(devs)),
		d:      d,
		due:    make(chan struct{}, 1),
	}
	// A failed reopen leaves every device with the caller, so the shards
	// reopened before the failure give up only what they made themselves.
	fail := func(infos []*RecoveryInfo, err error) (*ShardedEngine, []*RecoveryInfo, error) {
		for _, sh := range se.shards {
			if sh != nil {
				sh.abandon()
			}
		}
		return nil, infos, err
	}
	infos := make([]*RecoveryInfo, 0, len(devs))
	for i, dev := range devs {
		e, info, err := se.reopenShard(i, dev, opts)
		if err != nil {
			return fail(infos, &ErrShardFailed{Shard: i, Cause: err})
		}
		se.shards[i] = e
		se.bases[i] = se.nfiles
		se.nfiles += e.numFiles
		infos = append(infos, info)
	}
	if err := se.recoverIngestOrder(); err != nil {
		return fail(infos, errEngine("reopen sharded", err))
	}
	return se, infos, nil
}

// reopenShard reopens dev as shard i of the set.  The image must pass the
// unsharded recovery contract, and its pool stamps must name position i of
// this set and carry the set's build tag, opts.BuildTag — positional stamps
// alone cannot tell shard 1-of-4 of one unified build from shard 1-of-4 of
// another.  A mismatch abandons the reopened engine and reports
// ErrShardMismatch; dev stays the caller's either way.
func (se *ShardedEngine) reopenShard(i int, dev *nvm.SimDevice, opts Options) (*Engine, *RecoveryInfo, error) {
	e, info, err := Reopen(dev, se.d, opts)
	if err != nil {
		return nil, nil, err
	}
	// Root fails only for a slot outside the header, and these are inside.
	stamp, _ := e.pool.Root(rootShard)
	tag, _ := e.pool.Root(rootBuildTag)
	if stamp != int64(i)|int64(len(se.shards))<<32 {
		err = fmt.Errorf("%w: pool stamped %d of %d", ErrShardMismatch, uint32(stamp), stamp>>32)
	} else if tag != int64(opts.BuildTag) {
		err = fmt.Errorf("%w: pool build tag %08x, want %08x", ErrShardMismatch, tag, opts.BuildTag)
	}
	if err != nil {
		e.abandon()
		return nil, nil, err
	}
	return e, info, nil
}

// recoverIngestOrder restores the coordinator's global ingestion state after
// a sharded reopen: every shard's recovered batches, ordered globally
// (batches carry the global index of their first document), must number the
// appended documents contiguously from the end of the base corpus, and the
// shared dictionary's appended vocabulary is restored in that order.  Each
// shard's recovered cut already places its own documents.
func (se *ShardedEngine) recoverIngestOrder() error {
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	var all []IngestBatch
	for _, sh := range se.shards {
		all = append(all, sh.IngestBatches()...)
	}
	slices.SortFunc(all, func(a, b IngestBatch) int { return cmp.Compare(a.GlobalBase, b.GlobalBase) })
	if err := restoreVocabulary(se.d, all); err != nil {
		return fmt.Errorf("%w: %v", ErrNeedsReload, err)
	}
	for _, b := range all {
		if b.GlobalBase != se.nfiles+se.appended {
			return fmt.Errorf("%w: append batch at global %d, expected %d",
				ErrNeedsReload, b.GlobalBase, se.nfiles+se.appended)
		}
		se.appended += uint32(len(b.Docs))
	}
	return nil
}

// ingestPins is the consistent corpus cut one scatter-gather observes: every
// shard's serving cut pinned under ingestMu, so the merged result reflects
// exactly the appends committed before the batch started, no matter how many
// appends and compactions land while it runs.  Until the lanes join, lane i
// alone touches pins[i].
type ingestPins struct {
	pins   []servingCut
	nfiles int // global document count at pin time
}

// pinIngest pins every shard's serving cut for one scatter-gather; a static
// shard's names the shard engine and holds nothing.  A compaction may
// publish a new cut meanwhile, and the pin sees the one before it or the one
// after, whole.  The caller must release the pins.
func (se *ShardedEngine) pinIngest() *ingestPins {
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	p := &ingestPins{pins: make([]servingCut, len(se.shards)), nfiles: int(se.nfiles + se.appended)}
	for i, sh := range se.shards {
		if sh.ingest == nil {
			p.pins[i] = servingCut{tail: sh}
		} else {
			p.pins[i] = *sh.ingest.pin()
		}
	}
	return p
}

// release gives back every pinned cut.
func (p *ingestPins) release() {
	for i := range p.pins {
		p.pins[i].release()
	}
}

// Append appends a batch of documents to the sharded corpus: the whole batch
// routes to the least-loaded shard's durable append log (a batch never spans
// shards), and its documents take the next global positions in append order.
// vocab is the shared dictionary's size after interning the batch, novel the
// words the batch interned, in ID order (vocab - len(novel) ... vocab - 1).
// Appends are serialized against each other but never block in-flight
// queries, which keep reading their pinned corpus cut.
func (se *ShardedEngine) Append(docs []AppendDoc, vocab uint32, novel []string) error {
	if len(docs) == 0 {
		return nil
	}
	se.ingestMu.Lock()
	defer se.ingestMu.Unlock()
	best, load := -1, uint32(0)
	for i, sh := range se.shards {
		if sh.ingest == nil {
			continue
		}
		c := sh.ingest.current()
		if n := c.compacted + uint32(len(c.deltaMap)); best < 0 || n < load {
			best, load = i, n
		}
	}
	if best < 0 {
		return ErrNoIngest
	}
	if err := se.shards[best].AppendAt(docs, vocab, novel, se.nfiles+se.appended); err != nil {
		return err
	}
	se.appended += uint32(len(docs))
	if overThreshold(se.shards[best].ingest.current()) {
		select {
		case se.due <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return nil
}

// CorpusEpoch sums the shard epochs: it advances on every committed append
// and every shard compaction, and serving layers key caches by it.  Zero for
// engine sets without ingestion.
func (se *ShardedEngine) CorpusEpoch() uint64 {
	var sum uint64
	for _, sh := range se.shards {
		sum += sh.CorpusEpoch()
	}
	return sum
}

// IngestStats aggregates the shards' ingestion state.
func (se *ShardedEngine) IngestStats() IngestStats {
	var agg IngestStats
	for _, sh := range se.shards {
		s := sh.IngestStats()
		agg.Batches += s.Batches
		agg.Docs += s.Docs
		agg.LogBytes += s.LogBytes
		agg.LogCap += s.LogCap
		agg.DeltaDocs += s.DeltaDocs
		agg.DeltaSymbols += s.DeltaSymbols
		agg.CompactedDocs += s.CompactedDocs
		agg.Compactions += s.Compactions
		agg.ServingEngines += s.ServingEngines
	}
	agg.CompactionFailures = se.compactFailures.Load()
	return agg
}

// compact folds the live delta of every appendable shard whose cut due
// accepts into its serving base, one shard at a time.  A shard already
// compacting is skipped; a shard that cannot compact does not stop the
// others, and its error joins the result under its index and counts in
// IngestStats' CompactionFailures.
func (se *ShardedEngine) compact(due func(*servingCut) bool) error {
	appendable := false
	var errs []error
	for i, sh := range se.shards {
		st := sh.ingest
		if st == nil {
			continue
		}
		appendable = true
		if !due(st.current()) {
			continue
		}
		if err := st.compact(se.bases[i]); err != nil && !errors.Is(err, ErrCompacting) {
			se.compactFailures.Add(1)
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if !appendable {
		return ErrNoIngest
	}
	return errors.Join(errs...)
}

// Compact folds every shard's live delta into its serving base now.  The
// durable logs are untouched (recovery always replays the full delta over the
// original base), so a crash at any point during compaction is harmless.
// Appends arriving while a shard's merge builds are rejected with
// ErrCompacting; queries are never blocked — they keep their pinned
// pre-compaction cut until the swap.
func (se *ShardedEngine) Compact() error {
	return se.compact(func(*servingCut) bool { return true })
}

// shardedEnv is the Env the coordinator offers merging folds: whole-corpus
// shape, coordinator-side CPU charging, no sequence-key resolution (shard
// results arrive already Seq-keyed).
type shardedEnv struct {
	d      *dict.Dictionary
	nfiles int
	meter  *metrics.Meter
}

func (e shardedEnv) Dict() *dict.Dictionary     { return e.d }
func (e shardedEnv) NumFiles() int              { return e.nfiles }
func (e shardedEnv) SeqOf(uint64) analytics.Seq { panic("core: merge env resolves no sequence keys") }
func (e shardedEnv) Charge(n, perOp int64)      { e.meter.Charge(n, perOp) }

// scattered is what a scatter-gather ran besides its results: each shard's
// traversal span — shard i ran on lane i, all lanes in parallel — so callers
// can aggregate modeled time the way the work actually ran, and the gather's
// part lanes' charges (nil when the merges ran whole on the coordinator) with
// its critical path.
type scattered struct {
	spans  []metrics.Span
	parts  []int64
	gather int64
}

// laneDispatchCost is the coordinator-side overhead modeled per dispatched
// lane of a scatter-gather: scheduling, joining, and per-lane merge
// bookkeeping — the same order as one general-purpose transaction.
const laneDispatchCost = metrics.CostTxOverhead

// scatterGather runs the whole batch on every shard, one lane per shard,
// then merges the per-shard results in one key-range part per shard lane
// (see gather): serial work on meter's account, the parts' on their lanes'
// own.  A lane's error surfaces as ErrShardFailed naming its shard.
//
// The scatter opens by pinning every shard's serving cut, so the whole batch
// observes one consistent corpus cut even while appends and compactions
// proceed underneath it.  Lane i runs everything shard i's cut names: its
// tail, then, on the same goroutine, its delta (run's delta flag set), and
// the gather merges every unit as analytics.MergeUnits does, under the
// document maps the cut carries.  A corpus that is one contiguous unit from
// document 0 with no delta — the static one-shard set — needs no merge: the
// shard's result is the result.
func (se *ShardedEngine) scatterGather(ops []analytics.Op,
	run func(i int, e *Engine, delta bool) ([]any, metrics.Span, error),
	meter *metrics.Meter) ([]any, scattered, error) {
	pins := se.pinIngest()
	defer pins.release()
	tailOut := make([][]any, len(se.shards))
	deltaOut := make([][]any, len(se.shards))
	spans := make([]metrics.Span, len(se.shards))
	errs := make([]error, len(se.shards))
	var wg sync.WaitGroup
	for i := range se.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pin := &pins.pins[i]
			out, span, err := run(i, pin.tail, false)
			// The delta's meter and device are not charged to the batch's
			// span: on dataset B's first 800 documents at K=2 after 20
			// appended batches of 8, six single-task batches charge 4.99 ms
			// of delta work to no one against 20.35 ms reported (ROADMAP
			// item 2).
			if err == nil && pin.delta != nil {
				deltaOut[i], _, err = run(i, pin.delta, true)
			}
			if err != nil {
				errs[i] = &ErrShardFailed{Shard: i, Cause: err}
				return
			}
			tailOut[i], spans[i] = out, span
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, scattered{}, err
		}
	}
	// Each shard's lane charges the coordinator its scheduling and join
	// bookkeeping.
	meter.Charge(int64(len(se.shards)), laneDispatchCost)
	results := make([]any, len(ops))
	units := make([][]analytics.MergeUnit, len(ops))
	for j := range ops {
		mu := make([]analytics.MergeUnit, 0, 2*len(se.shards))
		for i := range pins.pins {
			mu = append(mu, analytics.MergeUnit{Result: tailOut[i][j], DocBase: se.bases[i], DocMap: pins.pins[i].tailMap})
		}
		for i := range pins.pins {
			if pins.pins[i].delta != nil {
				mu = append(mu, analytics.MergeUnit{Result: deltaOut[i][j], DocMap: pins.pins[i].deltaMap})
			}
		}
		if len(mu) == 1 && mu[0].DocMap == nil && mu[0].DocBase == 0 {
			// One contiguous unit from document 0 is already corpus-wide.
			results[j] = mu[0].Result
			continue
		}
		units[j] = mu
	}
	g0 := meter.Nanos()
	env := shardedEnv{d: se.d, nfiles: pins.nfiles, meter: meter}
	parts, err := gather(ops, units, results, env, len(se.shards))
	if err != nil {
		return nil, scattered{}, err
	}
	gathered := metrics.Span{CPUNanos: meter.Nanos() - g0}.AddParallel(parts)
	return results, scattered{spans: spans, parts: parts, gather: int64(gathered.Total())}, nil
}

// gather merges every op whose units are given into results.  Each merge is
// cut into at most parts key ranges, and part p of every op runs on lane p,
// charging a meter of the lane's own; the coordinator charges env the lanes'
// dispatch, then stitches each op's parts together on env's account.  Only
// lanes some part runs on are dispatched, so a batch of unkeyed merges (term
// vectors) runs on the coordinator itself, dispatching nothing.  Returns
// each lane's charged nanos, nil when the coordinator ran everything.
func gather(ops []analytics.Op, units [][]analytics.MergeUnit, results []any, env shardedEnv, parts int) ([]int64, error) {
	jobs := make([]*analytics.MergeJob, len(ops))
	cut := 1
	for j, op := range ops {
		if units[j] != nil {
			var err error
			if jobs[j], err = analytics.PlanMerge(op, env, units[j], parts); err != nil {
				return nil, err
			}
			cut = max(cut, jobs[j].Parts())
		}
	}
	parts = cut
	lane := func(p int, env shardedEnv) error {
		for _, job := range jobs {
			if job != nil && p < job.Parts() {
				if err := job.Run(p, env); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var laneNanos []int64
	if parts == 1 {
		if err := lane(0, env); err != nil {
			return nil, err
		}
	} else {
		env.meter.Charge(int64(parts), laneDispatchCost)
		meters, errs := make([]metrics.Meter, parts), make([]error, parts)
		var wg sync.WaitGroup
		for p := range meters {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				le := env
				le.meter = &meters[p]
				errs[p] = lane(p, le)
			}(p)
		}
		wg.Wait()
		laneNanos = make([]int64, parts)
		for p := range meters {
			if errs[p] != nil {
				return nil, errs[p]
			}
			laneNanos[p] = meters[p].Nanos()
		}
	}
	for j, job := range jobs {
		if job != nil {
			results[j] = job.Finish(env)
		}
	}
	return laneNanos, nil
}

// RunOps implements analytics.Executor: the batch executes fused on every
// shard concurrently, and the per-shard results are merged into corpus-wide
// results.  results[i] corresponds to ops[i] with the op's canonical result
// type, bit-identical to an unsharded engine over the same corpus.
func (se *ShardedEngine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	cpu0 := se.meter.Nanos()
	results, sc, err := se.scatterGather(ops,
		func(_ int, e *Engine, delta bool) ([]any, metrics.Span, error) {
			if delta {
				res, err := e.NewSession().RunOps(ops)
				return res, metrics.Span{}, err
			}
			res, err := e.RunOps(ops)
			if err != nil {
				return nil, metrics.Span{}, err
			}
			return res, e.LastTraversalSpan(), nil
		}, &se.meter)
	if err != nil {
		return nil, err
	}
	// Aggregate as the batch ran: shard lanes in parallel, the coordinator's
	// dispatches, merge and stitch extending the critical path, and the
	// gather's parts extending it by the slowest part.
	trav := metrics.MergeParallel(sc.spans...).AddSerial(se.meter.Nanos() - cpu0).AddParallel(sc.parts)
	tails := make([]int64, len(sc.spans))
	for i, sp := range sc.spans {
		tails[i] = int64(sp.Total())
	}
	se.mu.Lock()
	se.lastTrav = trav
	se.lastTails = tails
	se.lastGather = sc.gather
	se.mu.Unlock()
	return results, nil
}

var _ analytics.Executor = (*ShardedEngine)(nil)

// ShardedSession is a read-only query context over every shard: each lane
// runs a query session over its shard's pinned cut, in parallel, merged like
// the engine's task path, with all merge-side state session-local.  Sessions
// model the post-load query phase and must not run concurrently with engine
// task methods or Close, only with each other.  A lane's device error
// surfaces as ErrShardFailed naming its shard.
//
// The session holds one traversal workspace per shard lane and nothing
// else: a lane's workspace follows the shard, not an engine, so each run
// serves whatever tail and delta the shard's cut names in it.
type ShardedSession struct {
	se    *ShardedEngine
	ws    []*workspace
	meter metrics.Meter
}

// NewSession opens a query session over every shard.
func (se *ShardedEngine) NewSession() *ShardedSession {
	ss := &ShardedSession{se: se, ws: make([]*workspace, len(se.shards))}
	for i := range ss.ws {
		ss.ws[i] = &workspace{}
	}
	return ss
}

// RunOps implements analytics.Executor over session-local state.
func (ss *ShardedSession) RunOps(ops []analytics.Op) ([]any, error) {
	return ss.runOps(nil, ops)
}

// RunOpsContext is RunOps with cancellation: every lane polls the same ctx,
// so canceling the request unwinds all lanes of the scatter-gather promptly
// (within one body read per lane).  The cancellation surfaces as
// ErrShardFailed with ctx.Err() in its cause chain — callers distinguish a
// canceled batch from a genuine shard failure with errors.Is against
// context.Canceled / context.DeadlineExceeded.
func (ss *ShardedSession) RunOpsContext(ctx context.Context, ops []analytics.Op) ([]any, error) {
	return ss.runOps(ctx, ops)
}

func (ss *ShardedSession) runOps(ctx context.Context, ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	results, sc, err := ss.se.scatterGather(ops,
		func(i int, e *Engine, _ bool) ([]any, metrics.Span, error) {
			res, err := e.newSession(ss.ws[i]).runOps(ctx, ops)
			return res, metrics.Span{}, err
		}, &ss.meter)
	for _, n := range sc.parts {
		ss.meter.Charge(n, 1)
	}
	return results, err
}

var _ analytics.Executor = (*ShardedSession)(nil)

// Meter reports the modeled CPU cost of this session's gather work — lane
// dispatches, merges and stitches, a cut gather's parts summed.  The lanes'
// traversals charge their own transient sessions, which nothing reads.
func (ss *ShardedSession) Meter() *metrics.Meter { return &ss.meter }

// WorkspaceBytes reports the traversal working memory the session's lanes
// held at the end of their last runs.  Safe to call while a run is in flight.
func (ss *ShardedSession) WorkspaceBytes() int64 {
	var n int64
	for _, w := range ss.ws {
		n += w.Bytes()
	}
	return n
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns shard i's engine, for inspection and shard-local recovery
// checks; mutating it directly bypasses the coordinator.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// DocBases returns the global index of each shard's first document.
func (se *ShardedEngine) DocBases() []uint32 { return se.bases }

// InitSpan reports the parallel build: critical path across shards, summed
// device statistics.
func (se *ShardedEngine) InitSpan() metrics.Span { return se.initSpan }

// LastTraversalSpan reports the last scatter-gather: the slowest lane's
// traversal plus the gather.
func (se *ShardedEngine) LastTraversalSpan() metrics.Span {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastTrav
}

// LastGather reports the modeled critical path of the last engine batch's
// gather: the coordinator's serial merge work (lane dispatches and stitch,
// when cut into parts) plus the slowest part.
func (se *ShardedEngine) LastGather() time.Duration {
	se.mu.Lock()
	defer se.mu.Unlock()
	return time.Duration(se.lastGather)
}

// LastLaneTails reports each shard lane's modeled total for the last engine
// batch, one entry per shard — the distribution whose maximum is the
// scatter's critical path, and the lane imbalance the shards' sizes leave.
func (se *ShardedEngine) LastLaneTails() []int64 {
	se.mu.Lock()
	defer se.mu.Unlock()
	return append([]int64(nil), se.lastTails...)
}

// NVMBytes sums pool residency across shards.
func (se *ShardedEngine) NVMBytes() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.NVMBytes()
	}
	return n
}

// DRAMBytes sums DRAM residency across shards.
func (se *ShardedEngine) DRAMBytes() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.DRAMBytes()
	}
	return n
}

// DeviceStats sums device counters across the shard devices.
func (se *ShardedEngine) DeviceStats() nvm.Stats {
	var st nvm.Stats
	for _, sh := range se.shards {
		st = st.Add(sh.Device().Stats())
	}
	return st
}

// Close releases every shard's simulated device.
func (se *ShardedEngine) Close() error {
	var errs []error
	for i, sh := range se.shards {
		if err := sh.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
