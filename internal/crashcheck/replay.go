package crashcheck

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// run is one exploration: the corpus, the shard grammars and pool sizes
// every replay builds from, and the golden run every recovery is judged by.
type run struct {
	cfg   Config
	files [][]uint32 // the whole corpus
	base  int        // documents the grammars hold; Ingest appends the rest
	d     *dict.Dictionary
	gs    []*cfg.Grammar // one per shard
	opts  core.Options
	sizes []int64 // per-shard pool sizes

	// Golden-run results.
	global                  any          // the task's result over the whole corpus
	refs                    []*reference // per shard (not for Ingest)
	prefixes                []any        // Ingest: the result with b append batches visible, per b
	bases                   []uint32     // per-shard document bases
	builds, totals, ftotals []int64      // per-shard events: the build's, all of them, the follower's
}

// reference is one shard's golden committed state.
type reference struct {
	id     map[uint32]uint64 // committed result table (word or sequence IDs); nil for a per-file task
	task   analytics.Task
	result any // exact shard-local task result, in mapResults's form
}

// newRun generates the corpus and infers the shard grammars: with
// sequitur.Infer at K = 1 and through the shared-dictionary path at K > 1 —
// shard grammars interned, unified against the shared rule table and
// re-materialized, the pipeline the archive format persists — the way
// ntadoc's compressSharded does.
func newRun(c Config) (*run, error) {
	spec := datagen.Spec{
		Name: "crashcheck", Seed: c.CorpusSeed,
		Files: c.Files, TokensPer: c.TokensPer, Vocab: c.Vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	r := &run{cfg: c, files: files, base: len(files), d: d, opts: c.engineOptions()}
	if c.Scenario == Ingest {
		r.base = len(files) / 2
	}
	if c.Shards == 1 {
		g, err := sequitur.Infer(files[:r.base], uint32(d.Len()))
		if err != nil {
			return nil, fmt.Errorf("crashcheck: infer grammar: %w", err)
		}
		r.gs = []*cfg.Grammar{g}
	} else {
		sb, err := sequitur.InferShardsShared(files, uint32(d.Len()), c.Shards)
		if err != nil {
			return nil, fmt.Errorf("crashcheck: infer shard grammars: %w", err)
		}
		if r.gs = sb.Shards; len(r.gs) != c.Shards {
			return nil, fmt.Errorf("crashcheck: got %d shards for k=%d", len(r.gs), c.Shards)
		}
	}
	r.sizes = make([]int64, len(r.gs))
	for i, g := range r.gs {
		var err error
		if r.sizes[i], err = core.PoolEstimate(g, r.opts); err != nil {
			return nil, fmt.Errorf("crashcheck: size shard %d pool: %w", i, err)
		}
	}
	return r, nil
}

// golden completes the workload once on healthy devices, validates it
// against the analytic reference, and records the references and event
// counts the exploration needs.
func (r *run) golden() (err error) {
	p := r.replay(0, -1, false)
	defer func() { err = errors.Join(err, p.release()) }()
	task := r.cfg.Task
	if p.err != nil {
		return fmt.Errorf("crashcheck: golden %s: %w", task, p.err)
	}
	r.global = refResult(task, r.files)
	if !reflect.DeepEqual(p.result, r.global) {
		return fmt.Errorf("crashcheck: golden %s result does not match reference", task)
	}
	if want := len(r.files) - r.base; p.acked != want { // zero outside Ingest
		return fmt.Errorf("crashcheck: golden run acked %d/%d appends", p.acked, want)
	}
	k := len(r.gs)
	r.bases = slices.Clone(p.se.DocBases())
	r.builds, r.totals, r.ftotals = p.builds, make([]int64, k), make([]int64, k)
	for i, dev := range p.devs {
		r.totals[i] = dev.PersistEvents()
	}
	if r.cfg.Scenario == Ingest {
		for b := 0; b <= len(r.files)-r.base; b++ {
			r.prefixes = append(r.prefixes, refResult(task, r.files[:r.base+b]))
		}
		return nil
	}
	ops := taskOps(task)
	r.refs = make([]*reference, k)
	base := uint32(0)
	for i, g := range r.gs {
		ref := &reference{result: refResult(task, r.files[base:base+g.NumFiles])}
		base += g.NumFiles
		if ops[len(ops)-1].Scope() == analytics.ScopeGlobal {
			var ok bool
			if ref.id, ref.task, ok = p.se.Shard(i).CommittedCounts(); !ok {
				return fmt.Errorf("crashcheck: golden shard %d committed no counts", i)
			}
		}
		r.refs[i] = ref
		if p.fdevs == nil {
			continue
		}
		// Sync shipping: the follower's durable image is the primary's, byte
		// for byte, at every commit boundary — the last one included.
		r.ftotals[i] = p.fdevs[i][0].PersistEvents()
		pcrc, perr := p.devs[i].DurableCRC()
		fcrc, ferr := p.fdevs[i][0].DurableCRC()
		if err := errors.Join(perr, ferr); err != nil {
			return fmt.Errorf("crashcheck: shard %d durable CRC: %w", i, err)
		}
		if pcrc != fcrc {
			return fmt.Errorf("crashcheck: shard %d follower image diverged from primary", i)
		}
	}
	return nil
}

// replay is one run of the scenario's workload on fresh devices.
type replay struct {
	se     *core.ShardedEngine // nil when the build failed
	devs   []*nvm.SimDevice    // per-shard primaries
	fdevs  [][]*nvm.SimDevice  // per-shard followers (Failover only)
	builds []int64             // per-shard persistence events of the build
	acked  int                 // appends acknowledged (Ingest only)
	result any                 // the task's result, in mapResults's form
	err    error               // the build's or the task's error
}

// replay builds the scenario's engine through core.NewSharded and runs the
// workload: the append stream for Ingest, then the task once.  With ev >= 0
// shard s's primary — its follower when follower is set — fails from
// persistence event ev on.  The caller ends it with release.
func (r *run) replay(s int, ev int64, follower bool) *replay {
	k := len(r.gs)
	p := &replay{devs: make([]*nvm.SimDevice, k)}
	o := r.opts
	for i := range p.devs {
		p.devs[i] = nvm.New(nvm.KindNVM, r.sizes[i])
	}
	o.ShardDevices = p.devs
	if r.cfg.Scenario == Failover {
		p.fdevs = make([][]*nvm.SimDevice, k)
		for i := range p.fdevs {
			p.fdevs[i] = []*nvm.SimDevice{nvm.New(nvm.KindNVM, r.sizes[i])}
		}
		o.Replication = core.Replication{FollowerDevices: p.fdevs}
	}
	if ev >= 0 {
		armed := p.devs[s]
		if follower {
			armed = p.fdevs[s][0]
		}
		armed.FailFromPersistEvent(ev)
	}
	if p.se, p.err = core.NewSharded(r.gs, r.d, o); p.err != nil {
		return p
	}
	p.builds = make([]int64, k)
	for i, dev := range p.devs {
		p.builds[i] = dev.PersistEvents()
	}
	if r.cfg.Scenario == Ingest {
		p.acked = r.appendStream(p.se)
	}
	p.result, p.err = runOn(p.se, r.cfg.Task)
	return p
}

// appendStream drives the Ingest workload's appends into se: one batch per
// document past the base corpus, with a compaction at the midpoint.  It
// returns how many appends were acknowledged; a failed append ends the
// stream, like a crashed process.
func (r *run) appendStream(se *core.ShardedEngine) int {
	vocab := uint32(r.d.Len())
	mid := r.base + (len(r.files)-r.base)/2
	for i := r.base; i < len(r.files); i++ {
		doc := core.AppendDoc{Name: fmt.Sprintf("live%d", i), Tokens: r.files[i]}
		if se.Append([]core.AppendDoc{doc}, vocab, nil) != nil {
			return i - r.base
		}
		if i == mid {
			// Compaction is serving-only: the durable log is untouched, so a
			// failure here must not affect what recovery sees.
			_ = se.Compact()
		}
	}
	return len(r.files) - r.base
}

// release ends a replay: the engine if the build got that far — with its
// followers and whatever else it made — and then the injected devices, which
// a failed build left with the harness (discarding one the engine already
// closed is a no-op).
func (p *replay) release() error {
	var err error
	if p.se != nil {
		err = p.se.Close()
	}
	for _, dev := range append(slices.Concat(p.fdevs...), p.devs...) {
		err = errors.Join(err, dev.Discard())
	}
	return err
}

// explore replays the workload with shard s's primary — its follower when
// follower is set — armed at ev, then recovers every shard's surviving image
// under each torn-write subset and checks the scenario's contract.
func (r *run) explore(s int, ev int64, follower bool) ([]Outcome, error) {
	p := r.replay(s, ev, follower)
	var outs []Outcome
	images, prefix := p.devs, ""
	switch {
	case follower:
		head := Outcome{Subset: fmt.Sprintf("follower-torn@%d", ev), State: "healthy"}
		if p.err != nil {
			head.State = "error"
			head.Violations = append(head.Violations, "torn follower disturbed the primary workload: "+p.err.Error())
		} else if !reflect.DeepEqual(p.result, r.global) {
			head.Violations = append(head.Violations, "workload result differs with a torn follower")
		}
		outs = append(outs, head)
		images = slices.Clone(p.devs)
		images[s] = p.fdevs[s][0]
		prefix = "follower-torn:"
	case p.err == nil && ev < r.totals[s]:
		// Every flush and drain from event ev on failed; a workload that
		// still claims success swallowed a persistence error somewhere.
		outs = append(outs, Outcome{
			Subset: "-", State: "error",
			Violations: []string{fmt.Sprintf("workload succeeded despite shard %d failing from event %d", s, ev)},
		})
	}
	for _, sub := range subsets(r.cfg, ev) {
		o := Outcome{Subset: prefix + sub.name}
		if r.cfg.Scenario == Ingest {
			o.State, o.Violations = crashed(images[0], sub, func(dev *nvm.SimDevice) (string, []string) {
				return r.checkIngest(dev, p.acked)
			})
		} else {
			o.State, o.Violations = r.checkShards(images, sub)
		}
		outs = append(outs, o)
	}
	if err := p.release(); err != nil {
		return nil, fmt.Errorf("crashcheck: release replay of shard %d event %d: %w", s, ev, err)
	}
	return outs, nil
}

// primaryDies arms shard s's primary at workload event ev and demands the
// workload completes through failover, bit-identical, twice.
func (r *run) primaryDies(s int, ev int64) (o Outcome) {
	o = Outcome{Subset: "primary-dies", State: "failover"}
	died := ev < r.totals[s]
	if !died {
		o.State = "healthy"
	}
	p := r.replay(s, ev, false)
	defer func() {
		if err := p.release(); err != nil {
			o.Violations = append(o.Violations, "release: "+err.Error())
		}
	}()
	if p.err != nil {
		o.State = "error"
		o.Violations = append(o.Violations, fmt.Sprintf(
			"failover did not mask shard %d dying at event %d: %v", s, ev, p.err))
		return o
	}
	if !reflect.DeepEqual(p.result, r.global) {
		o.Violations = append(o.Violations, "failover result differs from global reference")
	}
	if n := p.se.FailoverCount(); died && n == 0 {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"shard %d died at event %d but no failover was performed", s, ev))
	} else if !died && n != 0 {
		o.Violations = append(o.Violations, "failover performed on a healthy run")
	}
	if res, err := runOn(p.se, r.cfg.Task); err != nil {
		o.Violations = append(o.Violations, "batch after failover: "+err.Error())
	} else if !reflect.DeepEqual(res, r.global) {
		o.Violations = append(o.Violations, "batch after failover differs from global reference")
	}
	return o
}
