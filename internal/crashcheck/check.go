package crashcheck

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// crashed forks src's durable image and pending set, crashes the fork sub's
// way and hands it to check; the fork is discarded after.  A fork that
// cannot be made, crashed or released is an "error" outcome with a
// violation, like any other broken replay.
func crashed(src *nvm.SimDevice, sub subset, check func(*nvm.SimDevice) (string, []string)) (state string, viols []string) {
	clone, err := src.CloneDurable()
	if err != nil {
		return "error", []string{"clone: " + err.Error()}
	}
	defer func() {
		if err := clone.Discard(); err != nil {
			viols = append(viols, "discard clone: "+err.Error())
		}
	}()
	if err := sub.crash(clone); err != nil {
		return "error", []string{"crash injection: " + err.Error()}
	}
	return check(clone)
}

// closeInto closes c and records a failure as a violation.
func closeInto(viols *[]string, c io.Closer) {
	if err := c.Close(); err != nil {
		*viols = append(*viols, "close recovered engine: "+err.Error())
	}
}

// checkShards recovers every shard from a fork of its image, crashed sub's
// way, under the per-shard contract, and checks that the recovered shards'
// results merge to the global reference.
func (r *run) checkShards(images []*nvm.SimDevice, sub subset) (string, []string) {
	states := make([]string, len(images))
	results := make([][]any, len(images))
	var viols []string
	for i, img := range images {
		st, vs := crashed(img, sub, func(dev *nvm.SimDevice) (st string, vs []string) {
			st, vs, results[i] = r.checkShard(dev, i)
			return st, vs
		})
		states[i] = st
		for _, v := range vs {
			viols = append(viols, fmt.Sprintf("shard %d: %s", i, v))
		}
	}
	if !slices.ContainsFunc(results, func(res []any) bool { return res == nil }) {
		if merged, err := r.merge(results); err != nil {
			viols = append(viols, "merge recovered shards: "+err.Error())
		} else if !reflect.DeepEqual(merged, r.global) {
			viols = append(viols, "merged recovered results differ from global reference")
		}
	}
	return strings.Join(states, "|"), viols
}

// checkShard recovers shard i from its crashed image and checks the
// per-shard contract.  It returns the shard's op results — from the reopened
// engine, or from a rebuild when recovery demands a reload — or nil when the
// shard is unusable (always with a violation).
func (r *run) checkShard(dev *nvm.SimDevice, i int) (state string, viols []string, result []any) {
	defer func() {
		if p := recover(); p != nil {
			state, result = "panic", nil
			viols = append(viols, fmt.Sprintf("recovery panicked: %v", p))
		}
	}()
	ref := r.refs[i]
	var x analytics.Executor
	e, info, err := core.Reopen(dev, r.d, r.opts)
	switch {
	case errors.Is(err, core.ErrNeedsReload):
		// The shard's initialization never became durable: rebuild it from
		// its compressed grammar, as the recovery contract prescribes.
		state = "reload"
		se, err := core.NewSharded([]*cfg.Grammar{r.gs[i]}, r.d, r.opts)
		if err != nil {
			return state, []string{"rebuild after reload: " + err.Error()}, nil
		}
		defer closeInto(&viols, se)
		x = se
	case err != nil:
		return "error", []string{"unexpected recovery error: " + err.Error()}, nil
	default:
		defer closeInto(&viols, e)
		state = fmt.Sprintf("phase%d", info.Phase)
		viols = checkCounts(e, info, ref)
		x = e
	}
	// The recovered shard must be fully usable: re-running the task yields
	// the exact shard reference.
	ops := taskOps(r.cfg.Task)
	res, err := x.RunOps(ops)
	if err != nil {
		return state, append(viols, "re-run after recovery: "+err.Error()), nil
	}
	if !reflect.DeepEqual(mapResults(ops, res), ref.result) {
		viols = append(viols, "re-run result differs from shard reference")
	}
	return state, viols, res
}

// checkCounts checks a reopened shard's operation-log state against its
// reference.  Replayed counts are a prefix of the committed mutation stream:
// no key outside the reference, no count above it — which catches
// corrupt-record admission and double replay of superseded records.  A
// durably committed traversal must expose exactly the reference.
func checkCounts(e *core.Engine, info *core.RecoveryInfo, ref *reference) (viols []string) {
	rc, err := e.ReplayedCounts()
	if err != nil {
		viols = append(viols, "ReplayedCounts: "+err.Error())
	} else if ref.id != nil {
		for k, v := range rc {
			want, ok := ref.id[k]
			if !ok {
				viols = append(viols, fmt.Sprintf("replayed key %d absent from shard reference", k))
			} else if v > want {
				viols = append(viols, fmt.Sprintf("replayed count %d=%d exceeds shard reference %d", k, v, want))
			}
		}
	}
	if info.Phase >= 2 && ref.id != nil {
		cc, task, ok := e.CommittedCounts()
		switch {
		case !ok:
			viols = append(viols, "phase 2 but CommittedCounts not ok")
		case task != ref.task:
			viols = append(viols, fmt.Sprintf("committed task %v, want %v", task, ref.task))
		case !maps.Equal(cc, ref.id):
			viols = append(viols, "committed counts differ from shard reference")
		}
	}
	return viols
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

// merge folds the recovered per-shard op results — as the shard engines
// returned them — together the way the sharded engine does, and returns the
// merged result in mapResults's form.
func (r *run) merge(results [][]any) (any, error) {
	ops := taskOps(r.cfg.Task)
	merged := make([]any, len(ops))
	for j, op := range ops {
		col := make([]any, len(results))
		for i, res := range results {
			col[i] = res[j]
		}
		var err error
		if merged[j], err = analytics.MergeShardResults(op, mergeEnv{d: r.d, n: len(r.files)}, col, r.bases); err != nil {
			return nil, err
		}
	}
	return mapResults(ops, merged), nil
}

// checkIngest reopens the crashed one-shard image and checks the ingestion
// contract: acked appends survive, recovery lands on a batch boundary with
// the exact prefix result, and the engine stays appendable.
func (r *run) checkIngest(dev *nvm.SimDevice, acked int) (state string, viols []string) {
	defer func() {
		if p := recover(); p != nil {
			state = "panic"
			viols = append(viols, fmt.Sprintf("recovery panicked: %v", p))
		}
	}()
	e, infos, err := core.ReopenSharded([]*nvm.SimDevice{dev}, r.d, r.opts)
	if err != nil {
		if errors.Is(err, core.ErrNeedsReload) {
			if acked > 0 {
				// Appends only start once the pool build is complete, so a
				// reload verdict after an acked append loses durable data.
				return "reload", []string{fmt.Sprintf("%d acked appends lost to ErrNeedsReload", acked)}
			}
			return "reload", nil
		}
		return "error", []string{"unexpected recovery error: " + err.Error()}
	}
	defer closeInto(&viols, e)
	state = fmt.Sprintf("phase%d", infos[0].Phase)

	b := int(e.IngestStats().Batches)
	switch {
	case b < acked:
		viols = append(viols, fmt.Sprintf("recovered %d batches, but %d were acknowledged", b, acked))
	case b >= len(r.prefixes):
		return state, append(viols, fmt.Sprintf("recovered %d batches, stream only had %d", b, len(r.prefixes)-1))
	}

	// Batch-boundary atomicity: the recovered corpus serves exactly the
	// b-batch prefix reference — a torn batch matches no prefix.
	res, err := runOn(e, r.cfg.Task)
	if err != nil {
		return state, append(viols, "re-run after recovery: "+err.Error())
	}
	if !reflect.DeepEqual(res, r.prefixes[b]) {
		viols = append(viols, fmt.Sprintf("recovered result does not match the %d-batch prefix", b))
	}

	// The recovered engine keeps accepting appends.
	post := core.AppendDoc{Name: "post", Tokens: r.files[0]}
	if err := e.Append([]core.AppendDoc{post}, uint32(r.d.Len()), nil); err != nil {
		return state, append(viols, "post-recovery append: "+err.Error())
	}
	want := refResult(r.cfg.Task, append(slices.Clone(r.files[:r.base+b]), r.files[0]))
	if res, err := runOn(e, r.cfg.Task); err != nil {
		viols = append(viols, "post-recovery re-run: "+err.Error())
	} else if !reflect.DeepEqual(res, want) {
		viols = append(viols, "post-recovery append result does not match reference")
	}
	return state, viols
}
