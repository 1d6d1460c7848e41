// Package crashcheck systematically explores crash points of the engine's
// persistence strategies (§IV-E), in the spirit of CrashMonkey: a golden run
// of a workload counts the device's persistence events (every Flush and
// Drain), then for each crash point the workload is replayed on a fresh
// device armed to fail from that event on, and the resulting durable state —
// under several torn-write subsets of the pending set (nvm.CrashAt) — is
// recovered with core.Reopen and checked against invariants:
//
//  1. recovery never panics;
//  2. it returns either core.ErrNeedsReload or a usable engine;
//  3. replayed operation-log counts never exceed the committed reference for
//     any key (no corrupt-record admission, no double replay of records a
//     completed checkpoint superseded);
//  4. when the durable phase says a traversal committed, the committed
//     counts equal the reference exactly;
//  5. the recovered engine re-runs the task to the exact reference result.
//
// A per-file task (Run with "invertedindex") commits no result table, so its
// runs are judged by invariants 1, 2 and 5.  It has almost no persistence
// schedule of its own: its counters — per file, and bottom-up's per rule —
// are scratch in one reused pool region, never logged and never flushed, so
// its events are the op log's resets and the checkpoint's header.  The fused
// "wordcount+invertedindex" puts that scratch above a global destination: the
// word count's table is logged and committed while the per-file pass reuses
// the region over it, and invariants 3 and 4 judge the table.
//
// Exhaustive over every event on small corpora; seeded sampling otherwise.
package crashcheck

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"sort"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// Config selects the workload and the exploration budget.
type Config struct {
	// Task is "wordcount" (default), "seqcount" or — Run only — the per-file
	// "invertedindex" or the fused "wordcount+invertedindex".
	Task string
	// Persistence is the §IV-E strategy under test.
	Persistence core.Persistence
	// Strategy is the per-file traversal direction (default: the planner's).
	Strategy core.Strategy
	// OpLogCap is the operation log's size in bytes (default: the engine's
	// 256 KiB, which these corpora never fill).  A log of a few hundred bytes
	// compacts several times per run, putting compaction — and the frames
	// and table flushes around it — inside the explored events.
	OpLogCap int64
	// Points bounds how many crash points are explored; 0 means exhaustive
	// (every persistence event of the golden run, plus the completed run).
	// Sampling is seeded and always includes the first and last events.
	Points int
	// Subsets is how many seeded torn-write subsets are injected per crash
	// point, in addition to the two extremes (nothing pending persists /
	// everything pending persists).  Default 3.
	Subsets int
	// Seed drives both point sampling and torn-subset selection.
	Seed int64
	// Corpus shape; defaults are small enough for exhaustive exploration.
	Files, TokensPer, Vocab int
	// CorpusSeed is the datagen seed (default 7).
	CorpusSeed int64
	// Log, when non-nil, receives a progress line per crash point.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Task == "" {
		c.Task = "wordcount"
	}
	if c.Subsets == 0 {
		c.Subsets = 3
	}
	if c.Files == 0 {
		c.Files = 2
	}
	if c.TokensPer == 0 {
		c.TokensPer = 120
	}
	if c.Vocab == 0 {
		c.Vocab = 40
	}
	if c.CorpusSeed == 0 {
		c.CorpusSeed = 7
	}
	return c
}

// engineOptions is the engine configuration the workload runs under.
func (c Config) engineOptions() core.Options {
	return core.Options{
		Persistence: c.Persistence,
		Strategy:    c.Strategy,
		OpLogCap:    c.OpLogCap,
		Sequences:   c.Task == "seqcount",
	}
}

// Outcome is one recovery attempt: a crash point combined with one torn
// subset of the pending set.
type Outcome struct {
	// Subset names the injected pending-set subset: "none" (crash before
	// anything unfenced reaches media), "all" (everything pending reaches
	// media), or "seed=N".
	Subset string
	// State is what recovery returned: "reload" (ErrNeedsReload), "phase1",
	// "phase2", or "error"/"panic" (always accompanied by violations).
	State string
	// Violations lists every invariant this outcome broke; empty means the
	// outcome is consistent.
	Violations []string
}

// Point is the verdict for one crash point.
type Point struct {
	// Event is the persistence-event index the device died at: event Event
	// and all later flushes and drains failed.
	Event int64
	// Shard is the shard whose device was armed (RunSharded explorations
	// only; zero for unsharded runs).  The other shards' devices stay
	// healthy, so the point exercises recovery with some shards fully
	// drained and one interrupted mid-stream.
	Shard    int
	Outcomes []Outcome
}

// Violations counts the invariant violations across the point's outcomes.
func (p Point) Violations() int {
	n := 0
	for _, o := range p.Outcomes {
		n += len(o.Violations)
	}
	return n
}

// Report is the result of a Run.
type Report struct {
	// TotalEvents is the golden run's persistence-event count; crash points
	// range over [0, TotalEvents] (the last one is the completed run).
	TotalEvents int64
	Points      []Point
	// Violations is the total invariant-violation count; zero means every
	// explored crash point recovered consistently.
	Violations int
}

// reference is the golden run's committed state, against which every
// recovery is judged.
type reference struct {
	id     map[uint32]uint64 // committed result table (word or sequence IDs); nil for a per-file task
	task   analytics.Task
	result any // exact task result (map[uint32]uint64 or map[Seq]uint64)
}

// Run executes the exploration and returns the per-point verdicts.  It is an
// error when the golden run itself fails or does not match the analytic
// reference; invariant violations during exploration are reported, not
// returned as errors.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	spec := datagen.Spec{
		Name: "crashcheck", Seed: cfg.CorpusSeed,
		Files: cfg.Files, TokensPer: cfg.TokensPer, Vocab: cfg.Vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		return nil, fmt.Errorf("crashcheck: infer grammar: %w", err)
	}
	opts := cfg.engineOptions()
	size, err := core.PoolEstimate(g, opts)
	if err != nil {
		return nil, fmt.Errorf("crashcheck: size pool: %w", err)
	}

	ref, total, err := goldenRun(cfg, g, d, files, opts, size)
	if err != nil {
		return nil, err
	}

	rep := &Report{TotalEvents: total}
	for _, ev := range pickEvents(total, cfg.Points, cfg.Seed) {
		pt := Point{Event: ev}
		dev := nvm.New(nvm.KindNVM, size)
		dev.FailFromPersistEvent(ev)
		ro := opts
		ro.Device = dev
		_, werr := runTask(g, d, ro, cfg.Task)
		if werr == nil && ev < total {
			// Every flush and drain from event ev on failed; a workload that
			// still claims success swallowed a persistence error somewhere.
			pt.Outcomes = append(pt.Outcomes, Outcome{
				Subset: "-", State: "error",
				Violations: []string{fmt.Sprintf("workload succeeded despite failure from event %d", ev)},
			})
		}
		for _, sub := range subsets(cfg, ev) {
			clone, cerr := dev.CloneDurable()
			if cerr != nil {
				return nil, fmt.Errorf("crashcheck: clone at event %d: %w", ev, cerr)
			}
			o := Outcome{Subset: sub.name}
			if cerr := sub.crash(clone); cerr != nil {
				o.State = "error"
				o.Violations = append(o.Violations, "crash injection: "+cerr.Error())
			} else {
				o.State, o.Violations = checkRecovery(clone, d, opts, cfg.Task, ref)
			}
			pt.Outcomes = append(pt.Outcomes, o)
			if err := clone.Discard(); err != nil {
				return nil, fmt.Errorf("crashcheck: discard clone at event %d: %w", ev, err)
			}
		}
		if err := dev.Discard(); err != nil {
			return nil, fmt.Errorf("crashcheck: discard replay device: %w", err)
		}
		rep.Violations += pt.Violations()
		rep.Points = append(rep.Points, pt)
		if cfg.Log != nil {
			states := make([]string, len(pt.Outcomes))
			for i, o := range pt.Outcomes {
				states[i] = o.State
			}
			fmt.Fprintf(cfg.Log, "event %4d/%d: %v violations=%d\n", ev, total, states, pt.Violations())
		}
	}
	return rep, nil
}

// goldenRun completes the workload once on an unarmed device, validates it
// against the analytic reference, and captures the committed counts plus the
// total persistence-event count.
func goldenRun(cfg Config, g *cfg.Grammar, d *dict.Dictionary, files [][]uint32,
	opts core.Options, size int64) (*reference, int64, error) {
	dev := nvm.New(nvm.KindNVM, size)
	defer dev.Discard() // a failed build leaves the device ours
	o := opts
	o.Device = dev
	e, err := core.New(g, d, o)
	if err != nil {
		return nil, 0, fmt.Errorf("crashcheck: golden run: %w", err)
	}
	defer e.Close()
	result, err := runOn(e, cfg.Task)
	if err != nil {
		return nil, 0, fmt.Errorf("crashcheck: golden %s: %w", cfg.Task, err)
	}
	if want := refResult(cfg.Task, files); !reflect.DeepEqual(result, want) {
		return nil, 0, fmt.Errorf("crashcheck: golden %s result does not match reference", cfg.Task)
	}
	ref := &reference{result: result}
	if ops := taskOps(cfg.Task); ops[len(ops)-1].Scope() == analytics.ScopeGlobal {
		var ok bool
		if ref.id, ref.task, ok = e.CommittedCounts(); !ok {
			return nil, 0, errors.New("crashcheck: golden run committed no counts")
		}
	}
	return ref, dev.PersistEvents(), nil
}

// runTask builds an engine on opts.Device and runs the task once.
func runTask(g *cfg.Grammar, d *dict.Dictionary, opts core.Options, task string) (any, error) {
	e, err := core.New(g, d, opts)
	if err != nil {
		return nil, err
	}
	return runOn(e, task)
}

// taskOp returns the workload task's op.
func taskOp(task string) analytics.Op {
	switch task {
	case "seqcount":
		return analytics.SequenceCountOp{}
	case "invertedindex":
		return analytics.InvertedIndexOp{}
	}
	return analytics.WordCountOp{}
}

// fusedTask is the fused workload: word count and the per-file inverted
// index in one batch.
const fusedTask = "wordcount+invertedindex"

// taskOps returns the workload's ops, run as one batch.  The fused task puts
// its per-file op first: the phase commit records a batch's last op, so the
// word count's table — below the per-file pass's scratch — is the committed
// result invariants 3 and 4 judge.
func taskOps(task string) []analytics.Op {
	if task == fusedTask {
		return []analytics.Op{analytics.InvertedIndexOp{}, analytics.WordCountOp{}}
	}
	return []analytics.Op{taskOp(task)}
}

// runOn runs the workload task on x — a bare engine, or a shard set — and
// returns its result in the map form the references are in: one result, or
// a fused task's []any in op order.
func runOn(x analytics.Executor, task string) (any, error) {
	ops := taskOps(task)
	res, err := x.RunOps(ops)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(ops))
	for i, op := range ops {
		out[i] = analytics.MapResult(op, res[i])
	}
	if len(out) == 1 {
		return out[0], nil
	}
	return out, nil
}

// subset is one way the pending set reaches (or fails to reach) media.
type subset struct {
	name  string
	crash func(*nvm.SimDevice) error
}

func subsets(cfg Config, ev int64) []subset {
	out := []subset{
		{name: "none", crash: func(d *nvm.SimDevice) error { return d.Crash() }},
		{name: "all", crash: func(d *nvm.SimDevice) error {
			if err := d.Drain(); err != nil {
				return err
			}
			return d.Crash()
		}},
	}
	for j := 0; j < cfg.Subsets; j++ {
		seed := cfg.Seed + ev*1009 + int64(j)*9176351
		out = append(out, subset{
			name:  fmt.Sprintf("seed=%d", seed),
			crash: func(d *nvm.SimDevice) error { return d.CrashAt(seed) },
		})
	}
	return out
}

// checkRecovery reopens the crashed device and checks every invariant.  A
// device that recovers is discarded with its engine; one that does not stays
// the caller's, so the caller discards either way.
func checkRecovery(dev *nvm.SimDevice, d *dict.Dictionary, opts core.Options,
	task string, ref *reference) (state string, viols []string) {
	defer func() {
		if r := recover(); r != nil {
			state = "panic"
			viols = append(viols, fmt.Sprintf("recovery panicked: %v", r))
		}
	}()
	e, info, err := core.Reopen(dev, d, opts)
	if err != nil {
		if errors.Is(err, core.ErrNeedsReload) {
			return "reload", nil // acceptable: caller rebuilds from input
		}
		return "error", []string{"unexpected recovery error: " + err.Error()}
	}
	defer e.Close()
	state = fmt.Sprintf("phase%d", info.Phase)

	// Replayed counts are a prefix of the committed mutation stream: no key
	// outside the reference, no count above it.  Catches corrupt-record
	// admission and double replay of superseded records.
	rc, err := e.ReplayedCounts()
	if err != nil {
		viols = append(viols, "ReplayedCounts: "+err.Error())
	} else if ref.id != nil {
		for k, v := range rc {
			want, okK := ref.id[k]
			if !okK {
				viols = append(viols, fmt.Sprintf("replayed key %d absent from reference", k))
			} else if v > want {
				viols = append(viols, fmt.Sprintf("replayed count %d=%d exceeds reference %d", k, v, want))
			}
		}
	}

	// A durably committed traversal must expose exactly the reference.
	if info.Phase >= 2 && ref.id != nil {
		cc, gotTask, ok := e.CommittedCounts()
		switch {
		case !ok:
			viols = append(viols, "phase 2 but CommittedCounts not ok")
		case gotTask != ref.task:
			viols = append(viols, fmt.Sprintf("committed task %v, want %v", gotTask, ref.task))
		case !maps.Equal(cc, ref.id):
			viols = append(viols, "committed counts differ from reference")
		}
	}

	// The recovered engine must be fully usable: re-running the task yields
	// the exact reference result.
	res, err := runOn(e, task)
	if err != nil {
		viols = append(viols, "re-run after recovery: "+err.Error())
	} else if !reflect.DeepEqual(res, ref.result) {
		viols = append(viols, "re-run result differs from reference")
	}
	return state, viols
}

// pickEvents chooses which crash points to explore.  points <= 0 or >= the
// candidate count means all of [0, total].  Otherwise the first and last
// events are always included and the rest are a seeded sample, so the
// hardest boundaries (nothing durable yet / everything superseded) are never
// skipped.
func pickEvents(total int64, points int, seed int64) []int64 {
	all := total + 1
	if points <= 0 || int64(points) >= all {
		out := make([]int64, all)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	chosen := map[int64]bool{0: true, total: true}
	rng := rand.New(rand.NewSource(seed))
	for int64(len(chosen)) < min(int64(points), all) {
		chosen[rng.Int63n(total+1)] = true
	}
	out := make([]int64, 0, len(chosen))
	for ev := range chosen {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
