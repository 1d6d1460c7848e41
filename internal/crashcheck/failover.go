package crashcheck

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// RunFailover explores the replication/failover matrix of a k-way sharded
// engine with one follower per shard.  For every sampled (shard, event)
// point it checks two scenarios against the replicated golden run:
//
//   - primary-dies: the shard's primary is armed to die at a workload-phase
//     persistence event.  Every commit it drained is already durable on its
//     follower, so the scatter-gather path must mask the failure — promote
//     the follower, recover it through the ordinary RecoveryInfo machinery,
//     re-dispatch the shard's ops — and both the interrupted batch and a
//     subsequent batch must equal the global reference bit for bit.
//   - follower-torn: the follower itself is armed (its event space covers
//     the bootstrap snapshot install and every shipped commit).  A torn
//     follower must never disturb the primary workload, and its frozen
//     image — under every seeded crash subset — must still satisfy the
//     per-shard recovery contract, merging back to the global reference
//     alongside the healthy shards.
func RunFailover(kcfg Config, k int) (*Report, error) {
	kcfg = kcfg.withDefaults()
	if k < 2 {
		return nil, fmt.Errorf("crashcheck: failover exploration needs k >= 2, got %d", k)
	}
	if kcfg.Files < k {
		kcfg.Files = 2 * k
	}
	spec := datagen.Spec{
		Name: "crashcheck-failover", Seed: kcfg.CorpusSeed,
		Files: kcfg.Files, TokensPer: kcfg.TokensPer, Vocab: kcfg.Vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
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

	// newReplicated assembles fresh primaries plus one follower per shard.
	newReplicated := func() (devs []*nvm.SimDevice, fdevs [][]*nvm.SimDevice, o core.Options) {
		devs = make([]*nvm.SimDevice, k)
		fdevs = make([][]*nvm.SimDevice, k)
		for i := range devs {
			devs[i] = nvm.New(nvm.KindNVM, sizes[i])
			fdevs[i] = []*nvm.SimDevice{nvm.New(nvm.KindNVM, sizes[i])}
		}
		o = opts
		o.ShardDevices = devs
		o.Replication = core.Replication{FollowerDevices: fdevs}
		return devs, fdevs, o
	}
	// free ends a replicated replay: the engine, which owns every device of a
	// build that succeeded, and then the devices themselves, which a failed
	// build left here.
	free := func(se *core.ShardedEngine, devs []*nvm.SimDevice, fdevs [][]*nvm.SimDevice) error {
		all := slices.Concat(fdevs...)
		return release(se, append(all, devs...))
	}

	// Golden replicated run: per-shard references, global reference, the
	// per-shard build event counts (failure points are sampled from the
	// workload phase, after construction and bootstrap), and the primary and
	// follower event totals that bound each event space.
	devs, fdevs, o := newReplicated()
	se, err := core.NewSharded(gs, d, o)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("crashcheck: golden replicated build: %w", err), free(nil, devs, fdevs))
	}
	builds := make([]int64, k)
	for i := range devs {
		builds[i] = devs[i].PersistEvents()
	}
	result, err := runOn(se, kcfg.Task)
	if err != nil {
		se.Close()
		return nil, fmt.Errorf("crashcheck: golden replicated %s: %w", kcfg.Task, err)
	}
	global := refResult(kcfg.Task, files)
	if !reflect.DeepEqual(result, global) {
		se.Close()
		return nil, fmt.Errorf("crashcheck: golden replicated %s result does not match reference", kcfg.Task)
	}
	bases := append([]uint32(nil), se.DocBases()...)
	refs := make([]*reference, k)
	totals := make([]int64, k)
	ftotals := make([]int64, k)
	base := uint32(0)
	for i := 0; i < k; i++ {
		id, task, ok := se.Shard(i).CommittedCounts()
		if !ok {
			se.Close()
			return nil, fmt.Errorf("crashcheck: golden shard %d committed no counts", i)
		}
		refs[i] = &reference{
			id:     id,
			task:   task,
			result: refResult(kcfg.Task, files[base:base+gs[i].NumFiles]),
		}
		base += gs[i].NumFiles
		totals[i] = devs[i].PersistEvents()
		ftotals[i] = fdevs[i][0].PersistEvents()
		// The sync ship invariant: the follower's durable image is the
		// primary's, byte for byte, at every commit boundary — including the
		// last one.
		pcrc, cerr := devs[i].DurableCRC()
		if cerr != nil {
			se.Close()
			return nil, fmt.Errorf("crashcheck: primary %d durable CRC: %w", i, cerr)
		}
		fcrc, cerr := fdevs[i][0].DurableCRC()
		if cerr != nil {
			se.Close()
			return nil, fmt.Errorf("crashcheck: follower %d durable CRC: %w", i, cerr)
		}
		if pcrc != fcrc {
			se.Close()
			return nil, fmt.Errorf("crashcheck: shard %d sync follower image diverged from primary", i)
		}
	}
	se.Close()

	var grand int64
	for _, t := range totals {
		grand += t
	}
	rep := &Report{TotalEvents: grand}

	// primaryDies arms shard s's primary at event ev and demands the
	// workload completes through failover, bit-identical, twice.
	primaryDies := func(s int, ev int64) (o Outcome) {
		o = Outcome{Subset: "primary-dies", State: "failover"}
		if ev >= totals[s] {
			o.State = "healthy"
		}
		devs, fdevs, oo := newReplicated()
		devs[s].FailFromPersistEvent(ev)
		se, nerr := core.NewSharded(gs, d, oo)
		defer func() {
			if err := free(se, devs, fdevs); err != nil {
				o.Violations = append(o.Violations, "release: "+err.Error())
			}
		}()
		if nerr != nil {
			o.State = "error"
			o.Violations = append(o.Violations, fmt.Sprintf(
				"build failed despite workload-phase event %d: %v", ev, nerr))
			return o
		}
		res, werr := runOn(se, kcfg.Task)
		if werr != nil {
			o.State = "error"
			o.Violations = append(o.Violations, fmt.Sprintf(
				"failover did not mask shard %d dying at event %d: %v", s, ev, werr))
			return o
		}
		if !reflect.DeepEqual(res, global) {
			o.Violations = append(o.Violations, "failover result differs from global reference")
		}
		if ev < totals[s] && se.FailoverCount() == 0 {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"shard %d died at event %d but no failover was performed", s, ev))
		}
		if ev >= totals[s] && se.FailoverCount() != 0 {
			o.Violations = append(o.Violations, "failover performed on a healthy run")
		}
		res2, werr2 := runOn(se, kcfg.Task)
		if werr2 != nil {
			o.Violations = append(o.Violations, "batch after failover: "+werr2.Error())
		} else if !reflect.DeepEqual(res2, global) {
			o.Violations = append(o.Violations, "batch after failover differs from global reference")
		}
		return o
	}

	// followerTorn arms shard s's follower at follower event fev: the
	// primary workload must be undisturbed, and the frozen follower image
	// must recover under every seeded subset.
	followerTorn := func(s int, fev int64) (outs []Outcome) {
		head := Outcome{Subset: fmt.Sprintf("follower-torn@%d", fev), State: "healthy"}
		devs, fdevs, oo := newReplicated()
		fdevs[s][0].FailFromPersistEvent(fev)
		se, nerr := core.NewSharded(gs, d, oo)
		clones := make([]*nvm.SimDevice, k)
		defer func() {
			if err := errors.Join(free(se, devs, fdevs), discard(clones)); err != nil {
				outs[0].Violations = append(outs[0].Violations, "release: "+err.Error())
			}
		}()
		if nerr != nil {
			head.State = "error"
			head.Violations = append(head.Violations, fmt.Sprintf(
				"torn follower broke construction: %v", nerr))
			return []Outcome{head}
		}
		res, werr := runOn(se, kcfg.Task)
		if werr != nil {
			head.State = "error"
			head.Violations = append(head.Violations,
				"follower failure leaked into the primary workload: "+werr.Error())
			return []Outcome{head}
		}
		if !reflect.DeepEqual(res, global) {
			head.Violations = append(head.Violations, "workload result differs with a torn follower")
		}
		// Clone every shard's surviving image: the torn follower for shard
		// s, the healthy primaries for the rest.
		for i := range clones {
			src := devs[i]
			if i == s {
				src = fdevs[s][0]
			}
			c, cerr := src.CloneDurable()
			if cerr != nil {
				head.Violations = append(head.Violations, fmt.Sprintf("clone shard %d: %v", i, cerr))
				return []Outcome{head}
			}
			clones[i] = c
		}
		outs = []Outcome{head}
		for _, sub := range subsets(kcfg, fev) {
			o := Outcome{Subset: "follower-torn:" + sub.name}
			states := make([]string, k)
			results := make([]any, k)
			usable := true
			for i := range clones {
				st, viols, res := recoverCrashedClone(clones[i], sub, d, opts, gs[i], i, k, kcfg.Task, refs[i])
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
			outs = append(outs, o)
		}
		return outs
	}

	for s := 0; s < k; s++ {
		evs := pickEvents(totals[s]-builds[s], kcfg.Points, kcfg.Seed+int64(s))
		fevs := pickEvents(ftotals[s], kcfg.Points, kcfg.Seed+int64(s)*7919)
		for j, rel := range evs {
			ev := builds[s] + rel
			pt := Point{Event: ev, Shard: s}
			pt.Outcomes = append(pt.Outcomes, primaryDies(s, ev))
			if j < len(fevs) {
				pt.Outcomes = append(pt.Outcomes, followerTorn(s, fevs[j])...)
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
