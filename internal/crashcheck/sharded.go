package crashcheck

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// RunSharded explores crash points of a k-way sharded engine.  Each shard is
// an independent persistence domain with its own device and op log, so the
// interesting crash states are asymmetric: one shard dies mid-stream while
// the others run to completion.  For every (shard, event) point the workload
// runs with only that shard's device armed; each torn-write subset is then
// applied to every shard's durable clone, and the recovery contract is
// checked per shard:
//
//  1. per-shard recovery never panics and returns reload or a usable engine;
//  2. replayed op-log counts never exceed the shard-local reference;
//  3. a shard whose durable phase says its traversal committed exposes
//     exactly the shard-local committed counts;
//  4. after recovering every shard — rebuilding reload shards from their
//     compressed grammars — the merged per-shard results equal the global
//     reference, bit for bit.
func RunSharded(kcfg Config, k int) (*Report, error) {
	kcfg = kcfg.withDefaults()
	if k < 2 {
		return nil, fmt.Errorf("crashcheck: sharded exploration needs k >= 2, got %d", k)
	}
	if kcfg.Files < k {
		kcfg.Files = 2 * k
	}
	spec := datagen.Spec{
		Name: "crashcheck-sharded", Seed: kcfg.CorpusSeed,
		Files: kcfg.Files, TokensPer: kcfg.TokensPer, Vocab: kcfg.Vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	// Build through the shared-dictionary path: shard grammars are interned,
	// unified against the shared rule table, and re-materialized — the same
	// pipeline the archive format persists — so the crash exploration covers
	// the dedup path, not just independent per-shard inference.
	sb, err := sequitur.InferShardsShared(files, uint32(d.Len()), k)
	if err != nil {
		return nil, fmt.Errorf("crashcheck: infer shard grammars: %w", err)
	}
	gs := sb.Shards
	if len(gs) != k {
		return nil, fmt.Errorf("crashcheck: got %d shards for k=%d", len(gs), k)
	}
	opts := kcfg.engineOptions()
	sizes := make([]int64, k)
	for i, g := range gs {
		if sizes[i], err = core.PoolEstimate(g, opts); err != nil {
			return nil, fmt.Errorf("crashcheck: size shard %d pool: %w", i, err)
		}
	}

	refs, global, bases, totals, err := goldenShardedRun(kcfg, gs, d, files, opts, sizes)
	if err != nil {
		return nil, err
	}

	var grand int64
	for _, t := range totals {
		grand += t
	}
	rep := &Report{TotalEvents: grand}
	for s := 0; s < k; s++ {
		for _, ev := range pickEvents(totals[s], kcfg.Points, kcfg.Seed+int64(s)) {
			pt := Point{Event: ev, Shard: s}
			devs := make([]*nvm.SimDevice, k)
			for i := range devs {
				devs[i] = nvm.New(nvm.KindNVM, sizes[i])
			}
			devs[s].FailFromPersistEvent(ev)
			o := opts
			o.ShardDevices = devs
			se, werr := core.NewSharded(gs, d, o)
			if werr == nil {
				_, werr = runOn(se, kcfg.Task)
			}
			if werr == nil && ev < totals[s] {
				pt.Outcomes = append(pt.Outcomes, Outcome{
					Subset: "-", State: "error",
					Violations: []string{fmt.Sprintf(
						"workload succeeded despite shard %d failing from event %d", s, ev)},
				})
			}
			for _, sub := range subsets(kcfg, ev) {
				o := Outcome{Subset: sub.name}
				states := make([]string, k)
				results := make([]any, k)
				usable := true
				for i := range devs {
					st, viols, res := recoverCrashedClone(devs[i], sub, d, opts, gs[i], i, k, kcfg.Task, refs[i])
					states[i] = st
					for _, v := range viols {
						o.Violations = append(o.Violations, fmt.Sprintf("shard %d: %s", i, v))
					}
					if res == nil {
						usable = false
					}
					results[i] = res
				}
				o.State = strings.Join(states, "|")
				if usable {
					merged, merr := mergeShardResults(d, len(files), kcfg.Task, results, bases)
					if merr != nil {
						o.Violations = append(o.Violations, "merge recovered shards: "+merr.Error())
					} else if !reflect.DeepEqual(merged, global) {
						o.Violations = append(o.Violations, "merged recovered results differ from global reference")
					}
				}
				pt.Outcomes = append(pt.Outcomes, o)
			}
			if err := release(se, devs); err != nil {
				return nil, fmt.Errorf("crashcheck: release replay of shard %d event %d: %w", s, ev, err)
			}
			rep.Violations += pt.Violations()
			rep.Points = append(rep.Points, pt)
			if kcfg.Log != nil {
				states := make([]string, len(pt.Outcomes))
				for i, o := range pt.Outcomes {
					states[i] = o.State
				}
				fmt.Fprintf(kcfg.Log, "shard %d event %4d/%d: %v violations=%d\n",
					s, ev, totals[s], states, pt.Violations())
			}
		}
	}
	return rep, nil
}

// goldenShardedRun completes the sharded workload on healthy devices and
// captures, per shard: the committed counts, the shard-local task result,
// and the device's total persistence-event count.
func goldenShardedRun(kcfg Config, gs []*cfg.Grammar, d *dict.Dictionary, files [][]uint32,
	opts core.Options, sizes []int64) (refs []*reference, global any, bases []uint32, totals []int64, err error) {
	k := len(gs)
	devs := make([]*nvm.SimDevice, k)
	for i := range devs {
		devs[i] = nvm.New(nvm.KindNVM, sizes[i])
	}
	o := opts
	o.ShardDevices = devs
	se, err := core.NewSharded(gs, d, o)
	defer func() { err = errors.Join(err, release(se, devs)) }()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("crashcheck: golden sharded run: %w", err)
	}
	result, err := runOn(se, kcfg.Task)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("crashcheck: golden sharded %s: %w", kcfg.Task, err)
	}
	global = refResult(kcfg.Task, files)
	if !reflect.DeepEqual(result, global) {
		return nil, nil, nil, nil, fmt.Errorf("crashcheck: golden sharded %s result does not match reference", kcfg.Task)
	}
	bases = append([]uint32(nil), se.DocBases()...)
	refs = make([]*reference, k)
	totals = make([]int64, k)
	base := uint32(0)
	for i := 0; i < k; i++ {
		id, task, ok := se.Shard(i).CommittedCounts()
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("crashcheck: golden shard %d committed no counts", i)
		}
		refs[i] = &reference{
			id:     id,
			task:   task,
			result: refResult(kcfg.Task, files[base:base+gs[i].NumFiles]),
		}
		base += gs[i].NumFiles
		totals[i] = devs[i].PersistEvents()
	}
	return refs, global, bases, totals, nil
}

// release ends one replay: the engine if the build got that far — with its
// followers, replicas and whatever else it made — and then the injected
// devices, which a failed build left with the harness (discarding one the
// engine already closed is a no-op).
func release(se *core.ShardedEngine, devs []*nvm.SimDevice) error {
	var err error
	if se != nil {
		err = se.Close()
	}
	return errors.Join(err, discard(devs))
}

// discard releases harness-made devices, skipping the slots of a set that
// was never filled.
func discard(devs []*nvm.SimDevice) error {
	var errs []error
	for _, dev := range devs {
		if dev != nil {
			errs = append(errs, dev.Discard())
		}
	}
	return errors.Join(errs...)
}

// recoverCrashedClone forks src's durable image and pending set, crashes the
// fork the subset's way, recovers it under the per-shard contract and
// discards it.  A fork that cannot be made, crashed or released is an
// "error" outcome with a violation, like any other broken replay.
func recoverCrashedClone(src *nvm.SimDevice, sub subset, d *dict.Dictionary, opts core.Options,
	g *cfg.Grammar, shard, count int, task string, ref *reference) (state string, viols []string, result any) {
	clone, err := src.CloneDurable()
	if err != nil {
		return "error", []string{"clone: " + err.Error()}, nil
	}
	defer func() {
		if err := clone.Discard(); err != nil {
			viols = append(viols, "discard clone: "+err.Error())
		}
	}()
	if err := sub.crash(clone); err != nil {
		return "error", []string{"crash injection: " + err.Error()}, nil
	}
	return checkShardRecovery(clone, d, opts, g, shard, count, task, ref)
}

// checkShardRecovery recovers one shard's crashed device and checks the
// per-shard contract.  It returns the shard's recovered task result — from
// the reopened engine, or from a rebuild when recovery demands a reload —
// or nil when the shard is unrecoverable (always with a violation).
func checkShardRecovery(dev *nvm.SimDevice, d *dict.Dictionary, opts core.Options,
	g *cfg.Grammar, shard, count int, task string, ref *reference) (state string, viols []string, result any) {
	defer func() {
		if r := recover(); r != nil {
			state = "panic"
			viols = append(viols, fmt.Sprintf("recovery panicked: %v", r))
			result = nil
		}
	}()
	e, info, err := core.Reopen(dev, d, opts)
	if err != nil {
		if !errors.Is(err, core.ErrNeedsReload) {
			return "error", []string{"unexpected recovery error: " + err.Error()}, nil
		}
		// The shard's initialization never became durable: rebuild it from
		// its compressed grammar, as the recovery contract prescribes.
		ro := opts
		ro.ShardIndex = uint32(shard)
		ro.ShardCount = uint32(count)
		re, nerr := core.New(g, d, ro)
		if nerr != nil {
			return "reload", []string{"rebuild after reload: " + nerr.Error()}, nil
		}
		defer re.Close()
		res, rerr := analytics.RunAs[any](re, taskOp(task))
		if rerr != nil {
			return "reload", []string{"re-run after rebuild: " + rerr.Error()}, nil
		}
		if !reflect.DeepEqual(analytics.MapResult(taskOp(task), res), ref.result) {
			return "reload", []string{"rebuilt shard result differs from shard reference"}, res
		}
		return "reload", nil, res
	}
	defer e.Close()
	state = fmt.Sprintf("phase%d", info.Phase)

	rc, err := e.ReplayedCounts()
	if err != nil {
		viols = append(viols, "ReplayedCounts: "+err.Error())
	} else {
		for key, v := range rc {
			want, okK := ref.id[key]
			if !okK {
				viols = append(viols, fmt.Sprintf("replayed key %d absent from shard reference", key))
			} else if v > want {
				viols = append(viols, fmt.Sprintf("replayed count %d=%d exceeds shard reference %d", key, v, want))
			}
		}
	}

	if info.Phase >= 2 {
		cc, gotTask, ok := e.CommittedCounts()
		switch {
		case !ok:
			viols = append(viols, "phase 2 but CommittedCounts not ok")
		case gotTask != ref.task:
			viols = append(viols, fmt.Sprintf("committed task %v, want %v", gotTask, ref.task))
		case !maps.Equal(cc, ref.id):
			viols = append(viols, "committed counts differ from shard reference")
		}
	}

	res, err := analytics.RunAs[any](e, taskOp(task))
	if err != nil {
		viols = append(viols, "re-run after recovery: "+err.Error())
		return state, viols, nil
	}
	if !reflect.DeepEqual(analytics.MapResult(taskOp(task), res), ref.result) {
		viols = append(viols, "re-run result differs from shard reference")
	}
	return state, viols, res
}

// refResult computes the analytic reference for the task over files.
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

// mergeEnv is the minimal analytics.Env the shard-result merge needs: no
// sequence resolution (shard results are already Seq-keyed) and no cost
// accounting (the harness checks correctness, not time).
type mergeEnv struct {
	d *dict.Dictionary
	n int
}

func (e mergeEnv) Dict() *dict.Dictionary { return e.d }
func (e mergeEnv) NumFiles() int          { return e.n }
func (e mergeEnv) SeqOf(uint64) analytics.Seq {
	panic("crashcheck: merge env resolves no sequence keys")
}
func (e mergeEnv) Charge(int64, int64) {}

// mergeShardResults merges the recovered per-shard task results — as the
// shard engines returned them — the same way the sharded engine does, and
// returns the merged result in map form.
func mergeShardResults(d *dict.Dictionary, numFiles int, task string, results []any, bases []uint32) (any, error) {
	op := taskOp(task)
	merged, err := analytics.MergeShardResults(op, mergeEnv{d: d, n: numFiles}, results, bases)
	return analytics.MapResult(op, merged), err
}
