// Package crashcheck systematically explores crash points of the engine's
// persistence strategies (§IV-E), in the spirit of CrashMonkey: a golden run
// of a workload counts each device's persistence events (every Flush and
// Drain), then for each crash point the workload is replayed on fresh
// devices, one of them armed to fail from that event on, and the resulting
// durable state — under several torn-write subsets of the pending set
// (nvm.CrashAt) — is recovered and checked against invariants.
//
// One driver, Run, explores every scenario.  Every scenario builds a K-way
// sharded engine through core.NewSharded, K = 1 included — the path
// ntadoc.NewEngine takes — with one injected device per shard, each its own
// persistence domain.  A crash point arms one shard's device, so the
// interesting states are asymmetric: one shard dies mid-stream while the
// others run to completion.  A replay whose device died before the workload
// ended must report the failure: one that claims success swallowed a
// persistence error.  What the scenario does between the build and the
// crash, and which invariants it adds, is the Scenario:
//
//   - Crash runs the task once.  Each shard's image is recovered with
//     core.Reopen and checked against the per-shard contract:
//     1. recovery never panics;
//     2. it returns either core.ErrNeedsReload — and the shard, rebuilt from
//     its grammar, re-runs to the shard reference — or a usable engine;
//     3. replayed operation-log counts never exceed the shard's committed
//     reference for any key (no corrupt-record admission, no double replay
//     of records a completed checkpoint superseded);
//     4. when the durable phase says a traversal committed, the committed
//     counts equal the shard reference exactly;
//     5. the recovered engine re-runs the task to the exact shard reference,
//     and the recovered shards' results merge to the global reference, bit
//     for bit.
//   - Ingest drives a live append stream, one batch per document with a
//     compaction at the midpoint, into one shard, and checks the append
//     commit protocol: an acknowledged append survives any later crash;
//     recovery lands on a batch boundary (base plus a prefix of the stream,
//     never a torn batch) and serves that prefix's exact reference; and the
//     recovered engine keeps accepting appends.
//
// A per-file task ("invertedindex") commits no result table, so invariants
// 3 and 4 do not apply to it.  It has almost no persistence schedule of its
// own: its counters — per file, and bottom-up's per rule — are scratch in
// one reused pool region, never logged and never flushed, so its events are
// the op log's resets and the checkpoint's header.  The fused
// "wordcount+invertedindex" puts that scratch above a global destination:
// the word count's table is logged and committed while the per-file pass
// reuses the region over it, and invariants 3 and 4 judge the table.
//
// Exhaustive over every event on small corpora; seeded sampling otherwise.
package crashcheck

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Scenario is what the explored workload does between the build and the
// crash; see the package comment for each one's invariants.
type Scenario int

const (
	// Crash runs the task once.
	Crash Scenario = iota
	// Ingest takes live appends with a mid-stream compaction.  It runs one
	// shard.
	Ingest
)

// Config selects the workload and the exploration budget.
type Config struct {
	// Scenario is the workload and invariant set explored (default Crash).
	Scenario Scenario
	// Shards is the shard count K (default 1).
	Shards int
	// Task is "wordcount" (default), "seqcount", the per-file
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
	// Points bounds how many crash points are explored per shard; 0 means
	// exhaustive (every persistence event of the golden run, plus the
	// completed run).  Sampling is seeded and always includes the first and
	// last events.
	Points int
	// Subsets is how many seeded torn-write subsets are injected per crash
	// point, in addition to the two extremes (nothing pending persists /
	// everything pending persists).  Default 3.
	Subsets int
	// Seed drives both point sampling and torn-subset selection.
	Seed int64
	// Corpus shape; defaults are small enough for exhaustive exploration.
	// Files is raised to 2K when below K, and to 4 for Ingest (a base
	// corpus plus an appendable tail).
	Files, TokensPer, Vocab int
	// CorpusSeed is the datagen seed (default 7).
	CorpusSeed int64
	// Log, when non-nil, receives a progress line per crash point.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Task == "" {
		c.Task = "wordcount"
	}
	if c.Subsets == 0 {
		c.Subsets = 3
	}
	if c.Files == 0 {
		c.Files = 2
	}
	if c.Files < c.Shards {
		c.Files = 2 * c.Shards
	}
	if c.Scenario == Ingest && c.Files < 4 {
		c.Files = 4
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
	o := core.Options{
		Persistence: c.Persistence,
		Strategy:    c.Strategy,
		OpLogCap:    c.OpLogCap,
		Sequences:   c.Task == "seqcount",
	}
	if c.Scenario == Ingest {
		o.IngestCap = ingestCap
	}
	return o
}

// ingestCap is the append-log reservation for Ingest explorations: ample
// for the small corpora crash exploration uses.
const ingestCap = 1 << 16

// Outcome is one recovery attempt: a crash point combined with one torn
// subset of the pending set.
type Outcome struct {
	// Subset names the injected pending-set subset: "none" (crash before
	// anything unfenced reaches media), "all" (everything pending reaches
	// media), or "seed=N".
	Subset string
	// State is what recovery returned, per shard and joined with "|":
	// "reload" (ErrNeedsReload), "phase1", "phase2", or "error"/"panic"
	// (always accompanied by violations).
	State string
	// Violations lists every invariant this outcome broke; empty means the
	// outcome is consistent.
	Violations []string
}

// Point is the verdict for one crash point.
type Point struct {
	// Event is the persistence-event index the armed device died at: event
	// Event and all later flushes and drains failed.
	Event int64
	// Shard is the shard whose device was armed.  The other shards' devices
	// stay healthy.
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
	// TotalEvents is the sum of the golden run's per-shard persistence-event
	// counts; a shard's crash points range over [0, its count] (the last one
	// is the completed run).
	TotalEvents int64
	Points      []Point
	// Violations is the total invariant-violation count; zero means every
	// explored crash point recovered consistently.
	Violations int
}

// Run executes the exploration and returns the per-point verdicts.  It is an
// error when the configuration is invalid, or when the golden run itself
// fails or does not match the analytic reference; invariant violations
// during exploration are reported, not returned as errors.
func Run(c Config) (*Report, error) {
	c = c.withDefaults()
	switch {
	case c.Shards < 1:
		return nil, fmt.Errorf("crashcheck: %d shards", c.Shards)
	case c.Scenario == Ingest && c.Shards > 1:
		return nil, fmt.Errorf("crashcheck: ingest exploration runs one shard, got %d", c.Shards)
	}
	r, err := newRun(c)
	if err != nil {
		return nil, err
	}
	if err := r.golden(); err != nil {
		return nil, err
	}

	rep := &Report{}
	for _, t := range r.totals {
		rep.TotalEvents += t
	}
	for s, total := range r.totals {
		for _, ev := range pickEvents(total, c.Points, c.Seed+int64(s)) {
			outs, err := r.explore(s, ev)
			if err != nil {
				return nil, err
			}
			pt := Point{Event: ev, Shard: s, Outcomes: outs}
			rep.Violations += pt.Violations()
			rep.Points = append(rep.Points, pt)
			if c.Log != nil {
				states := make([]string, len(outs))
				for i, o := range outs {
					states[i] = o.State
				}
				fmt.Fprintf(c.Log, "shard %d event %4d/%d: %v violations=%d\n",
					s, ev, total, states, pt.Violations())
			}
		}
	}
	return rep, nil
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

// refResult computes the analytic reference for the task over files, in
// mapResults's form.
func refResult(task string, files [][]uint32) any {
	switch task {
	case "seqcount":
		return analytics.RefSequenceCount(files)
	case "invertedindex":
		return analytics.RefInvertedIndex(files)
	case fusedTask:
		return []any{analytics.RefInvertedIndex(files), analytics.RefWordCount(files)}
	}
	return analytics.RefWordCount(files)
}

// runOn runs the workload task on x — a shard engine, or a shard set — and
// returns its result in mapResults's form.
func runOn(x analytics.Executor, task string) (any, error) {
	ops := taskOps(task)
	res, err := x.RunOps(ops)
	if err != nil {
		return nil, err
	}
	return mapResults(ops, res), nil
}

// mapResults converts the ops' results to the map form the references are
// in: one result, or a fused task's []any in op order.
func mapResults(ops []analytics.Op, res []any) any {
	out := make([]any, len(ops))
	for i, op := range ops {
		out[i] = analytics.MapResult(op, res[i])
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
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
