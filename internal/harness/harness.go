// Package harness runs the paper's experiments: it builds (and caches) the
// synthetic corpora and their grammars, runs each task on each engine
// configuration, and reports paired wall/modeled timings plus memory
// accounting.  bench_test.go and cmd/benchfig are thin wrappers over it.
package harness

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
	"github.com/text-analytics/ntadoc/internal/tadoc"
	"github.com/text-analytics/ntadoc/internal/uncomp"
)

// Corpus is a generated dataset with its grammar, cached across runs.
type Corpus struct {
	Spec            datagen.Spec
	Files           [][]uint32
	Dict            *dict.Dictionary
	G               *cfg.Grammar
	Bytes           int64 // uncompressed token bytes
	CompressedBytes int64 // serialized grammar size (the on-disk input)
}

// corpusEntry is one cache slot: built at most once, awaited by every other
// caller of the same spec.  Holding a per-entry Once instead of the cache
// mutex during the (expensive) build lets concurrent grid cells construct
// different corpora at the same time.
type corpusEntry struct {
	once sync.Once
	c    *Corpus
	err  error
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*corpusEntry{}
)

// GetCorpus builds (or returns the cached) corpus for a spec.  It is safe
// for concurrent use: parallel grid cells that share a spec share one build.
func GetCorpus(spec datagen.Spec) (*Corpus, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", spec.Name, spec.Files, spec.TokensPer, spec.Vocab)
	corpusMu.Lock()
	e, ok := corpusCache[key]
	if !ok {
		e = &corpusEntry{}
		corpusCache[key] = e
	}
	corpusMu.Unlock()
	e.once.Do(func() { e.c, e.err = buildCorpus(spec) })
	return e.c, e.err
}

func buildCorpus(spec datagen.Spec) (*Corpus, error) {
	files, d := spec.GenerateWithDict()
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		return nil, fmt.Errorf("harness: infer %s: %w", spec.Name, err)
	}
	var bytes int64
	for _, f := range files {
		bytes += int64(len(f)) * 4
	}
	var cw countWriter
	if _, err := g.WriteTo(&cw); err != nil {
		return nil, err
	}
	return &Corpus{Spec: spec, Files: files, Dict: d, G: g, Bytes: bytes, CompressedBytes: cw.n}, nil
}

// parallelism is the experiment-grid concurrency level (≥ 1).  Each grid
// cell owns its own SimDevice and engine, so cells are independent; only
// wall-clock time changes with this setting — modeled figures do not.
var parallelism = 1

// SetParallelism sets how many experiment-grid cells run concurrently.
// Values below 1 are treated as 1 (serial).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}

// Parallelism reports the configured grid concurrency.
func Parallelism() int { return parallelism }

// ForEachCell runs fn(i) for every i in [0, n), at most Parallelism() cells
// concurrently, and returns the first error by cell order.  Callers store
// results indexed by i and print them serially afterwards, so output is
// byte-identical to a serial run.  The first error cancels the rest of the
// grid: cells not yet started (queued behind the concurrency limit) are
// skipped, so a failing experiment aborts promptly instead of grinding
// through the remaining cells.
func ForEachCell(n int, fn func(i int) error) error {
	if parallelism <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, parallelism)
	done := make(chan struct{})
	var failed sync.Once
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				// The slot may have won the race against cancellation.
				select {
				case <-done:
					return
				default:
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Do(func() { close(done) })
				}
			}(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countWriter measures serialized size without storing it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// diskReadNanos models the initialization-time cost of reading the input
// from disk, which the paper's methodology includes ("all datasets are
// assumed to be stored on disk and the time measurement includes IO").  The
// baseline reads the full text; the compressed engines read the much
// smaller grammar file.  Sequential SSD read at the SSD model's block rate.
func diskReadNanos(bytes int64) time.Duration {
	blocks := (bytes + 4095) / 4096
	return time.Duration(blocks * nvm.SSDModel.ReadNanos)
}

// Result is one measured (engine, dataset, task) cell.
type Result struct {
	Engine  string
	Dataset string
	Task    analytics.Task

	Init      time.Duration // initialization phase total (wall + modeled)
	Traversal time.Duration // graph traversal phase total
	Total     time.Duration

	InitWall, TravWall       time.Duration
	InitModeled, TravModeled time.Duration

	DRAMBytes int64
	NVMBytes  int64
	Device    nvm.Stats
	Persist   core.PersistCounts // N-TADOC only: counter updates, op-log traffic
}

// Speedup returns how many times faster r is than other (total time).
func (r Result) Speedup(other Result) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(other.Total) / float64(r.Total)
}

// RunNTADOC builds an N-TADOC engine for the corpus and runs one task.
// Sequence preprocessing is enabled only for sequence tasks, so each task
// pays its own initialization cost, as in Table II.
func RunNTADOC(c *Corpus, task analytics.Task, opts core.Options) (Result, error) {
	opts.Sequences = task == analytics.TaskSequenceCount || task == analytics.TaskRankedInvertedIndex
	if opts.Model == nil && (opts.Kind == nvm.KindSSD || opts.Kind == nvm.KindHDD) {
		// The paper caps the page cache at 20% of the uncompressed dataset
		// ("memory budget").  At the paper's multi-GB scale that budget is
		// always a small multiple of the compressed working set (their
		// compression ratio is ~10x); our scaled corpora carry
		// proportionally larger fixed structure overheads, so we preserve
		// the budget-to-working-set relation: the cache is the larger of
		// 20% of the raw data and 1.5x the estimated pool.
		budget := c.Bytes / 5
		if est, err := core.PoolEstimate(c.G, opts); err == nil && est+est/2 > budget {
			budget = est + est/2
		}
		m := nvm.ModelFor(opts.Kind).WithCacheBytes(budget)
		opts.Model = &m
	}
	eng, err := core.New(c.G, c.Dict, opts)
	if err != nil {
		return Result{}, err
	}
	defer eng.Close()
	if err := analytics.Run(eng, task); err != nil {
		return Result{}, err
	}
	init, trav := eng.InitSpan(), eng.LastTraversalSpan()
	diskIO := diskReadNanos(c.CompressedBytes)
	return Result{
		Engine:      "N-TADOC/" + opts.Kind.String() + "/" + opts.Persistence.String(),
		Dataset:     c.Spec.Name,
		Task:        task,
		Init:        init.Total() + diskIO,
		Traversal:   trav.Total(),
		Total:       init.Total() + diskIO + trav.Total(),
		InitWall:    init.Wall,
		TravWall:    trav.Wall,
		InitModeled: init.Modeled() + diskIO,
		TravModeled: trav.Modeled(),
		DRAMBytes:   eng.DRAMBytes(),
		NVMBytes:    eng.NVMBytes(),
		Device:      eng.Device().Stats(),
		Persist:     eng.PersistCounts(),
	}, nil
}

// RunUncompressed loads the raw tokens onto a device of the given kind and
// runs one task: the paper's baseline.
func RunUncompressed(c *Corpus, task analytics.Task, kind nvm.Kind) (Result, error) {
	model := nvm.ModelFor(kind)
	if kind == nvm.KindSSD || kind == nvm.KindHDD {
		model = model.WithCacheBytes(c.Bytes / 5)
	}
	dev := nvm.NewWithModel(kind, uncomp.RequiredSize(c.Files)+4096, model)
	defer dev.Discard()

	// The meter lives on the engine; the init span attaches after Load.
	initWall := metrics.Start(nil, nil)
	eng, err := uncomp.Load(dev, c.Dict, c.Files)
	if err != nil {
		return Result{}, err
	}
	initWall.Stop()
	initSpan := &metrics.Span{
		Wall:     initWall.Wall,
		Device:   dev.Stats(),
		CPUNanos: eng.Meter().Nanos(),
	}

	travSpan := metrics.Start(dev, eng.Meter())
	if err := analytics.Run(eng, task); err != nil {
		return Result{}, err
	}
	travSpan.Stop()

	// The baseline's intermediate results live in DRAM: estimate them by
	// the task's footprint over the raw corpus.
	dram := c.Bytes / 4 * 12 // rough map-entry footprint per token type
	diskIO := diskReadNanos(c.Bytes)
	return Result{
		Engine:      "uncompressed/" + kind.String(),
		Dataset:     c.Spec.Name,
		Task:        task,
		Init:        initSpan.Total() + diskIO,
		Traversal:   travSpan.Total(),
		Total:       initSpan.Total() + diskIO + travSpan.Total(),
		InitWall:    initSpan.Wall,
		TravWall:    travSpan.Wall,
		InitModeled: initSpan.Modeled() + diskIO,
		TravModeled: travSpan.Modeled(),
		DRAMBytes:   dram,
		Device:      dev.Stats(),
	}, nil
}

// RunTADOC runs one task on the DRAM TADOC engine: the theoretical upper
// bound (Fig 6).  The grammar and all intermediates live in DRAM; modeled
// device time is zero, so Total is pure wall time.
func RunTADOC(c *Corpus, task analytics.Task) (Result, error) {
	initSpan := metrics.Start(nil, nil)
	eng, err := tadoc.New(c.G, c.Dict)
	if err != nil {
		return Result{}, err
	}
	initSpan.Stop()
	// The corpus cache hands the engine a parsed grammar; charge the
	// deserialization and DRAM DAG construction the paper's TADOC performs
	// at initialization (decode every body symbol, allocate rule nodes).
	var bodySyms int64
	for _, body := range c.G.Rules {
		bodySyms += int64(len(body))
	}
	eng.Meter().Charge(bodySyms, metrics.CostScanToken+metrics.CostHashOp)
	initSpan.CPUNanos += eng.Meter().Nanos()

	travSpan := metrics.Start(nil, eng.Meter())
	if err := analytics.Run(eng, task); err != nil {
		return Result{}, err
	}
	travSpan.Stop()
	diskIO := diskReadNanos(c.CompressedBytes)
	return Result{
		Engine:    "TADOC/DRAM",
		Dataset:   c.Spec.Name,
		Task:      task,
		Init:      initSpan.Total() + diskIO,
		Traversal: travSpan.Total(),
		Total:     initSpan.Total() + diskIO + travSpan.Total(),
		InitWall:  initSpan.Wall,
		TravWall:  travSpan.Wall,
		DRAMBytes: eng.DRAMBytes(),
	}, nil
}

// FusedCell compares a batch of ops run as one fused traversal against the
// same ops run back-to-back on an identical engine: modeled traversal time
// and device read traffic (initialization excluded from both sides).
type FusedCell struct {
	SeqNanos, FusedNanos time.Duration // modeled traversal time
	SeqReads, FusedReads int64         // device ReadAt calls
	SeqBytes, FusedBytes int64         // device bytes read
}

// RunFusedComparison builds two identical N-TADOC engines over the corpus
// and runs the ops fused on one and sequentially on the other.
func RunFusedComparison(c *Corpus, ops []analytics.Op, opts core.Options) (FusedCell, error) {
	for _, op := range ops {
		opts.Sequences = opts.Sequences || op.Keys() == analytics.KeySequences
	}
	run := func(fused bool) (trav time.Duration, reads, bytes int64, err error) {
		eng, err := core.New(c.G, c.Dict, opts)
		if err != nil {
			return 0, 0, 0, err
		}
		defer eng.Close()
		before := eng.Device().Stats()
		if fused {
			if _, err := eng.RunOps(ops); err != nil {
				return 0, 0, 0, err
			}
			trav = eng.LastTraversalSpan().Total()
		} else {
			for _, op := range ops {
				if _, err := eng.RunOps([]analytics.Op{op}); err != nil {
					return 0, 0, 0, err
				}
				trav += eng.LastTraversalSpan().Total()
			}
		}
		after := eng.Device().Stats()
		return trav, after.Reads - before.Reads, after.BytesRead - before.BytesRead, nil
	}
	var cell FusedCell
	var err error
	if cell.SeqNanos, cell.SeqReads, cell.SeqBytes, err = run(false); err != nil {
		return FusedCell{}, err
	}
	if cell.FusedNanos, cell.FusedReads, cell.FusedBytes, err = run(true); err != nil {
		return FusedCell{}, err
	}
	return cell, nil
}

// ShardCell is one K point of the shard-scaling experiment: the corpus
// compressed into K shards built in parallel against a shared interning
// dictionary, unified into one shared rule table, with the fused batch
// scattered across the shards.  Modeled times are critical-path times (the
// slowest shard, plus the coordinator's merge for the traversal); Symbols
// is the total grammar size the independent builds produced (growing with
// K), DedupSymbols the stored size after cross-shard unification (shared
// rules counted once).
type ShardCell struct {
	K            int
	BuildTotal   time.Duration // parallel per-shard build, critical path
	TravTotal    time.Duration // fused batch traversal, critical path + merge
	Gather       time.Duration // the merge's share of TravTotal: its critical path
	Symbols      int64         // total rule-body symbols before unification
	DedupSymbols int64         // unified-form symbols: shared table + roots
	SharedRules  int           // shared rule table size
	NVMBytes     int64         // total pool residency across shards
}

// RunShardScaling partitions the corpus into k document shards, builds a
// sharded N-TADOC engine (one grammar, device, and pool per shard, built
// concurrently through the shared-dictionary dedup path), and runs ops as
// one fused scatter-gather batch.
func RunShardScaling(c *Corpus, ops []analytics.Op, k int, opts core.Options) (ShardCell, error) {
	for _, op := range ops {
		opts.Sequences = opts.Sequences || op.Keys() == analytics.KeySequences
	}
	sb, err := sequitur.InferShardsShared(c.Files, uint32(c.Dict.Len()), k)
	if err != nil {
		return ShardCell{}, err
	}
	opts.BuildTag = sb.Set.Checksum()
	se, err := core.NewSharded(sb.Shards, c.Dict, opts)
	if err != nil {
		return ShardCell{}, err
	}
	defer se.Close()
	if _, err := se.RunOps(ops); err != nil {
		return ShardCell{}, err
	}
	return ShardCell{
		K:            len(sb.Shards),
		BuildTotal:   se.InitSpan().Total(),
		TravTotal:    se.LastTraversalSpan().Total(),
		Gather:       se.LastGather(),
		Symbols:      sb.RawSymbols,
		DedupSymbols: sb.Set.SymbolCount(),
		SharedRules:  len(sb.Set.Shared),
		NVMBytes:     se.NVMBytes(),
	}, nil
}

// FailoverCell is one failover benchmark point: the same fused K-shard
// batch run healthy and run with one shard's primary killed mid-batch
// (masked by follower failover).  Times are modeled critical-path totals.
type FailoverCell struct {
	K          int
	Healthy    time.Duration // fused batch, all primaries live
	Failover   time.Duration // same batch with one primary dying mid-stream
	Recoveries int           // failovers performed during the failover run
}

// RunFailoverBench builds two replicated K-shard engines over the corpus
// (one synchronous follower per shard) and measures the failover matrix.
// The failover run's results are checked bit-identical against the healthy
// run — the benchmark doubles as the acceptance check that failover is
// invisible to callers.
func RunFailoverBench(c *Corpus, ops []analytics.Op, k int, opts core.Options) (FailoverCell, error) {
	for _, op := range ops {
		opts.Sequences = opts.Sequences || op.Keys() == analytics.KeySequences
	}
	sb, err := sequitur.InferShardsShared(c.Files, uint32(c.Dict.Len()), k)
	if err != nil {
		return FailoverCell{}, err
	}
	opts.BuildTag = sb.Set.Checksum()
	opts.Replication = core.Replication{Followers: 1}
	cell := FailoverCell{K: len(sb.Shards)}

	run := func(arm bool) (time.Duration, int, []any, error) {
		se, err := core.NewSharded(sb.Shards, c.Dict, opts)
		if err != nil {
			return 0, 0, nil, err
		}
		defer se.Close()
		if arm {
			dev := se.Shard(cell.K / 2).Device()
			dev.FailFromPersistEvent(dev.PersistEvents() + 1)
		}
		res, err := se.RunOps(ops)
		if err != nil {
			return 0, 0, nil, err
		}
		return se.LastTraversalSpan().Total(), se.FailoverCount(), res, nil
	}

	var ref, res []any
	if cell.Healthy, _, ref, err = run(false); err != nil {
		return FailoverCell{}, fmt.Errorf("healthy replicated run: %w", err)
	}
	if cell.Failover, cell.Recoveries, res, err = run(true); err != nil {
		return FailoverCell{}, fmt.Errorf("failover run: %w", err)
	}
	if !reflect.DeepEqual(res, ref) {
		return FailoverCell{}, fmt.Errorf("failover run diverged from the healthy run")
	}
	return cell, nil
}

// GeoMean returns the geometric mean of positive ratios.
func GeoMean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var logSum float64
	n := 0
	for _, r := range ratios {
		if r > 0 {
			logSum += math.Log(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
