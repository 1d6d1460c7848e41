// Online-ingestion crash exploration: the workload is a live one-shard set
// over the injected device, taking durable appends (with a mid-stream
// compaction), and the invariant matrix is the append commit protocol's
// contract:
//
//  1. an acknowledged append survives any later crash (body, then fence,
//     then atomic header commit — the ack happens after the drain);
//  2. recovery always lands on a batch boundary: the recovered corpus is
//     base plus a prefix of the append stream, never a torn batch;
//  3. the recovered engine serves the exact reference result for that
//     prefix and keeps accepting appends.
package crashcheck

import (
	"errors"
	"fmt"
	"reflect"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// ingestCap is the append-log reservation for ingest explorations: ample for
// the small corpora crash exploration uses.
const ingestCap = 1 << 16

// RunIngest executes the ingestion crash exploration: a golden run counts
// the primary device's persistence events while the engine takes one append
// batch per document (compacting mid-stream); each crash point then replays
// the workload on an armed device and checks every recovery invariant.
func RunIngest(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Files < 4 {
		// The workload needs a base corpus plus an appendable tail.
		cfg.Files = 4
	}
	spec := datagen.Spec{
		Name: "crashcheck-ingest", Seed: cfg.CorpusSeed,
		Files: cfg.Files, TokensPer: cfg.TokensPer, Vocab: cfg.Vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	base := cfg.Files / 2
	nBatches := cfg.Files - base
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		return nil, fmt.Errorf("crashcheck: infer base grammar: %w", err)
	}
	opts := cfg.engineOptions()
	opts.IngestCap = ingestCap
	size, err := core.PoolEstimate(g, opts)
	if err != nil {
		return nil, fmt.Errorf("crashcheck: size pool: %w", err)
	}

	// refs[k] is the exact reference result with k append batches visible;
	// every recovery must match one of them (batch-boundary atomicity).
	refs := make([]any, nBatches+1)
	for k := 0; k <= nBatches; k++ {
		refs[k] = refResult(cfg.Task, files[:base+k])
	}

	// Golden run: everything acks and the final state serves the full corpus.
	dev := nvm.New(nvm.KindNVM, size)
	e, acked, err := ingestWorkload(dev, g, d, opts, files, base, cfg.Task, refs[nBatches])
	total := dev.PersistEvents()
	if err := errors.Join(err, release(e, []*nvm.SimDevice{dev})); err != nil {
		return nil, fmt.Errorf("crashcheck: golden ingest run: %w", err)
	}
	if acked != nBatches {
		return nil, fmt.Errorf("crashcheck: golden run acked %d/%d appends", acked, nBatches)
	}

	rep := &Report{TotalEvents: total}
	for _, ev := range pickEvents(total, cfg.Points, cfg.Seed) {
		pt := Point{Event: ev}
		rdev := nvm.New(nvm.KindNVM, size)
		rdev.FailFromPersistEvent(ev)
		e, acked, _ := ingestWorkload(rdev, g, d, opts, files, base, cfg.Task, nil)
		for _, sub := range subsets(cfg, ev) {
			clone, cerr := rdev.CloneDurable()
			if cerr != nil {
				return nil, fmt.Errorf("crashcheck: clone at event %d: %w", ev, cerr)
			}
			o := Outcome{Subset: sub.name}
			if cerr := sub.crash(clone); cerr != nil {
				o.State = "error"
				o.Violations = append(o.Violations, "crash injection: "+cerr.Error())
			} else {
				o.State, o.Violations = checkIngestRecovery(clone, d, opts, cfg.Task, refs, acked, files, base)
			}
			pt.Outcomes = append(pt.Outcomes, o)
			if err := clone.Discard(); err != nil {
				return nil, fmt.Errorf("crashcheck: discard clone at event %d: %w", ev, err)
			}
		}
		if err := release(e, []*nvm.SimDevice{rdev}); err != nil {
			return nil, fmt.Errorf("crashcheck: release replay at event %d: %w", ev, err)
		}
		rep.Violations += pt.Violations()
		rep.Points = append(rep.Points, pt)
		if cfg.Log != nil {
			states := make([]string, len(pt.Outcomes))
			for i, o := range pt.Outcomes {
				states[i] = o.State
			}
			fmt.Fprintf(cfg.Log, "event %4d/%d: acked=%d %v violations=%d\n", ev, total, acked, states, pt.Violations())
		}
	}
	return rep, nil
}

// ingestWorkload builds an appendable one-shard set on dev and drives the
// append stream: one batch per document past base, a forced compaction at the
// midpoint, then one task run.  It returns how many appends were
// acknowledged; a batch error stops the stream (the process "crashed").
// want, when non-nil, requires the final task result to match (golden runs).
// The engine comes back open (nil if the build failed): the caller clones
// the device first and closes the engine, and the device under it, after.
func ingestWorkload(dev *nvm.SimDevice, g *cfg.Grammar, d *dict.Dictionary,
	opts core.Options, files [][]uint32, base int, task string, want any) (*core.ShardedEngine, int, error) {
	o := opts
	o.ShardDevices = []*nvm.SimDevice{dev}
	e, err := core.NewSharded([]*cfg.Grammar{g}, d, o)
	if err != nil {
		return nil, 0, err
	}
	vocab := uint32(d.Len())
	acked := 0
	mid := base + (len(files)-base)/2
	for i := base; i < len(files); i++ {
		doc := core.AppendDoc{Name: fmt.Sprintf("live%d", i), Tokens: files[i]}
		if err := e.Append([]core.AppendDoc{doc}, vocab, nil); err != nil {
			return e, acked, nil // the device died mid-append: stop, like a crashed process
		}
		acked++
		if i == mid {
			// Compaction is serving-only: the durable log is untouched, so a
			// failure here must not affect what recovery sees.
			_ = e.Compact()
		}
	}
	res, err := runOn(e, task)
	if want == nil {
		return e, acked, nil
	}
	if err != nil {
		return e, acked, err
	}
	if !reflect.DeepEqual(res, want) {
		return e, acked, errors.New("golden ingest result does not match reference")
	}
	return e, acked, nil
}

// checkIngestRecovery reopens the crashed device and checks the ingestion
// contract: acked appends survive, recovery lands on a batch boundary with
// the exact prefix result, and the engine stays appendable.
func checkIngestRecovery(dev *nvm.SimDevice, d *dict.Dictionary, opts core.Options,
	task string, refs []any, acked int, files [][]uint32, base int) (state string, viols []string) {
	defer func() {
		if r := recover(); r != nil {
			state = "panic"
			viols = append(viols, fmt.Sprintf("recovery panicked: %v", r))
		}
	}()
	e, infos, err := core.ReopenSharded([]*nvm.SimDevice{dev}, d, opts)
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
	defer e.Close()
	state = fmt.Sprintf("phase%d", infos[0].Phase)

	st := e.IngestStats()
	b := int(st.Batches)
	switch {
	case b < acked:
		viols = append(viols, fmt.Sprintf("recovered %d batches, but %d were acknowledged", b, acked))
	case b >= len(refs):
		viols = append(viols, fmt.Sprintf("recovered %d batches, stream only had %d", b, len(refs)-1))
		return state, viols
	}

	// Batch-boundary atomicity: the recovered corpus serves exactly the
	// b-batch prefix reference — a torn batch matches no prefix.
	res, err := runOn(e, task)
	if err != nil {
		viols = append(viols, "re-run after recovery: "+err.Error())
		return state, viols
	}
	if !reflect.DeepEqual(res, refs[b]) {
		viols = append(viols, fmt.Sprintf("recovered result does not match the %d-batch prefix", b))
	}

	// The recovered engine keeps accepting appends.
	post := core.AppendDoc{Name: "post", Tokens: files[0]}
	if err := e.Append([]core.AppendDoc{post}, uint32(d.Len()), nil); err != nil {
		viols = append(viols, "post-recovery append: "+err.Error())
		return state, viols
	}
	wantPost := refResult(task, append(append([][]uint32{}, files[:base+b]...), files[0]))
	res, err = runOn(e, task)
	if err != nil {
		viols = append(viols, "post-recovery re-run: "+err.Error())
	} else if !reflect.DeepEqual(res, wantPost) {
		viols = append(viols, "post-recovery append result does not match reference")
	}
	return state, viols
}
