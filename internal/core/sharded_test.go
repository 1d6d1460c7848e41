package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// shardGrammars infers k shard grammars the way archives do: through the
// shared-dictionary path, materialized from the unified set.
func shardGrammars(t testing.TB, files [][]uint32, numWords uint32, k int) []*cfg.Grammar {
	t.Helper()
	sb, err := sequitur.InferShardsShared(files, numWords, k)
	if err != nil {
		t.Fatalf("InferShardsShared(k=%d): %v", k, err)
	}
	return sb.Shards
}

// TestShardCountInvariance is the differential test of the sharded engine:
// for every registered op, a K-way sharded engine must return results
// bit-identical to the unsharded engine over the same corpus, for K up to
// more shards than strictly useful, across corpora with different file
// counts and redundancy.  Run under -race this also exercises the
// scatter-gather concurrency.
func TestShardCountInvariance(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		files, tokens, vocab int
	}{
		{"small", 51, 4, 200, 30},
		{"manyfiles", 52, 9, 120, 40},
		{"redundant", 53, 6, 300, 15},
	}
	ops := analytics.Ops()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files, d, g := corpus(t, tc.seed, tc.files, tc.tokens, tc.vocab)
			ref := newEngine(t, g, d, Options{Sequences: true})
			want, err := ref.RunOps(ops)
			if err != nil {
				t.Fatalf("unsharded RunOps: %v", err)
			}
			for k := 1; k <= 4; k++ {
				// The shard grammars went through interning, cross-shard rule
				// unification, and re-materialization, the form archives
				// ship.
				se, err := NewSharded(shardGrammars(t, files, uint32(d.Len()), k), d, Options{Sequences: true})
				if err != nil {
					t.Fatalf("NewSharded(k=%d): %v", k, err)
				}
				t.Cleanup(func() { se.Close() })
				got, err := se.RunOps(ops)
				if err != nil {
					t.Fatalf("sharded RunOps(k=%d): %v", k, err)
				}
				for i, op := range ops {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("k=%d op %s: sharded result differs from unsharded", k, op.Name())
					}
				}
				// Singleton path and typed engine methods.
				wc, err := analytics.WordCount(se)
				if err != nil {
					t.Fatalf("sharded WordCount(k=%d): %v", k, err)
				}
				if !reflect.DeepEqual(wc, analytics.MapResult(ops[0], want[0])) {
					t.Errorf("k=%d: WordCount differs from unsharded", k)
				}
			}
		})
	}
}

// TestShardedSessions checks concurrent sessions over a sharded engine
// merge to the same results as the engine itself.
func TestShardedSessions(t *testing.T) {
	files, d, g := corpus(t, 54, 5, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs := shardGrammars(t, files, uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()

	const nSessions = 4
	results := make([][]any, nSessions)
	errs := make([]error, nSessions)
	done := make(chan int, nSessions)
	for s := 0; s < nSessions; s++ {
		go func(s int) {
			ss := se.NewSession()
			results[s], errs[s] = ss.RunOps(ops)
			done <- s
		}(s)
	}
	for s := 0; s < nSessions; s++ {
		<-done
	}
	for s := 0; s < nSessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		for i, op := range ops {
			if !reflect.DeepEqual(results[s][i], want[i]) {
				t.Errorf("session %d op %s: result differs from unsharded", s, op.Name())
			}
		}
	}
}

// TestShardedSpansAndAccounting checks the coordinator's metric merge:
// critical-path totals, summed device stats, and summed residency.
func TestShardedSpansAndAccounting(t *testing.T) {
	files, d, _ := corpus(t, 55, 6, 250, 30)
	gs := shardGrammars(t, files, uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	if se.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", se.NumShards())
	}
	if got := se.DocBases(); len(got) != 3 || got[0] != 0 {
		t.Fatalf("DocBases = %v", got)
	}

	init := se.InitSpan()
	if init.Total() <= 0 {
		t.Error("init span not measured")
	}
	var maxInit, sumInit int64
	var sumNVM int64
	for i := 0; i < se.NumShards(); i++ {
		tot := int64(se.Shard(i).InitSpan().Total())
		sumInit += tot
		if tot > maxInit {
			maxInit = tot
		}
		sumNVM += se.Shard(i).NVMBytes()
	}
	if got := int64(init.Total()); got != maxInit {
		t.Errorf("init Total = %d, want critical path %d", got, maxInit)
	}
	if init.Device.ModeledNanos <= 0 {
		t.Error("init span lost device work")
	}
	if se.NVMBytes() != sumNVM {
		t.Errorf("NVMBytes = %d, want summed %d", se.NVMBytes(), sumNVM)
	}
	if se.DRAMBytes() <= 0 {
		t.Error("DRAMBytes not positive")
	}

	if _, err := analytics.WordCount(se); err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	trav := se.LastTraversalSpan()
	var maxTrav int64
	for i := 0; i < se.NumShards(); i++ {
		if tot := int64(se.Shard(i).LastTraversalSpan().Total()); tot > maxTrav {
			maxTrav = tot
		}
	}
	if got := int64(trav.Total()); got < maxTrav {
		t.Errorf("traversal Total %d below slowest shard %d", got, maxTrav)
	}
	if trav.Device.ModeledNanos <= 0 {
		t.Error("traversal span lost device work")
	}
	if st := se.DeviceStats(); st.ModeledNanos <= 0 {
		t.Error("DeviceStats not summed")
	}
}

// TestGatherCriticalPath recomputes a cut gather from the shards' own
// results and spans: the batch's critical path is the slowest shard lane
// plus one lane dispatch per shard, the slowest key-range part and the
// stitch, its CPU the sum of all of them.  The session path charges its
// meter the same gather work.  The small single-op batch is one whose
// shards are cheap next to a lane dispatch: it still runs one lane per
// shard, and its gather is still cut.
func TestGatherCriticalPath(t *testing.T) {
	wc, err := analytics.OpFor(analytics.TaskWordCount)
	if err != nil {
		t.Fatalf("OpFor: %v", err)
	}
	for _, tc := range []struct {
		name                  string
		seed                  int64
		nFiles, tokens, vocab int
		ops                   []analytics.Op
	}{
		{"fused", 56, 6, 400, 40, analytics.Ops()},
		{"small wordcount", 7, 4, 60, 20, []analytics.Op{wc}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files, d, _ := corpus(t, tc.seed, tc.nFiles, tc.tokens, tc.vocab)
			se, err := NewSharded(shardGrammars(t, files, uint32(d.Len()), 2), d, Options{Sequences: true})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			defer se.Close()
			checkGatherCriticalPath(t, se, d, len(files), tc.ops)
		})
	}

	// Term vectors have no keys to cut: a batch of them alone merges on the
	// coordinator, dispatching no part lanes.
	t.Run("term vectors", func(t *testing.T) {
		files, d, _ := corpus(t, 56, 6, 400, 40)
		se, err := NewSharded(shardGrammars(t, files, uint32(d.Len()), 2), d, Options{Sequences: true})
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		defer se.Close()
		tv, err := analytics.OpFor(analytics.TaskTermVector)
		if err != nil {
			t.Fatalf("OpFor: %v", err)
		}
		if _, err := se.RunOps([]analytics.Op{tv}); err != nil {
			t.Fatalf("term vectors RunOps: %v", err)
		}
		var whole metrics.Meter
		tvUnits := make([]analytics.MergeUnit, se.NumShards())
		for i := range tvUnits {
			res, err := se.Shard(i).NewSession().RunOps([]analytics.Op{tv})
			if err != nil {
				t.Fatalf("shard %d term vectors: %v", i, err)
			}
			tvUnits[i] = analytics.MergeUnit{Result: res[0], DocBase: se.DocBases()[i]}
		}
		if _, err := analytics.MergeUnits(tv, shardedEnv{d: d, nfiles: len(files), meter: &whole}, tvUnits); err != nil {
			t.Fatalf("term vectors MergeUnits: %v", err)
		}
		if got := int64(se.LastGather()); got != whole.Nanos() {
			t.Errorf("term vectors LastGather %d, want the one-part merge %d with no dispatch", got, whole.Nanos())
		}
	})
}

func checkGatherCriticalPath(t *testing.T, se *ShardedEngine, d *dict.Dictionary, nfiles int, ops []analytics.Op) {
	t.Helper()
	if _, err := se.RunOps(ops); err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	trav, gather := se.LastTraversalSpan(), int64(se.LastGather())
	parts, tails := se.NumShards(), se.LastLaneTails()
	if len(tails) != parts {
		t.Fatalf("scatter over %d lane(s) %v for %d shards: the gather is not cut", len(tails), tails, parts)
	}

	spans := make([]metrics.Span, parts)
	units := make([][]analytics.MergeUnit, len(ops))
	for i := range spans {
		spans[i] = se.Shard(i).LastTraversalSpan()
		if tails[i] != int64(spans[i].Total()) {
			t.Errorf("lane %d tail %d, want shard %d's total %d", i, tails[i], i, int64(spans[i].Total()))
		}
		res, err := se.Shard(i).NewSession().RunOps(ops)
		if err != nil {
			t.Fatalf("shard %d session: %v", i, err)
		}
		for j := range ops {
			units[j] = append(units[j], analytics.MergeUnit{Result: res[j], DocBase: se.DocBases()[i]})
		}
	}
	var stitch metrics.Meter
	partNanos := make([]int64, parts)
	for j, op := range ops {
		job, err := analytics.PlanMerge(op, shardedEnv{d: d, nfiles: nfiles, meter: &stitch}, units[j], parts)
		if err != nil {
			t.Fatalf("%s: PlanMerge: %v", op.Name(), err)
		}
		for p := 0; p < job.Parts(); p++ {
			var m metrics.Meter
			if err := job.Run(p, shardedEnv{d: d, nfiles: nfiles, meter: &m}); err != nil {
				t.Fatalf("%s part %d: %v", op.Name(), p, err)
			}
			partNanos[p] += m.Nanos()
		}
		job.Finish(shardedEnv{d: d, nfiles: nfiles, meter: &stitch})
	}
	var slowest, sum int64
	for _, n := range partNanos {
		slowest, sum = max(slowest, n), sum+n
	}
	if stitch.Nanos() == 0 {
		t.Error("a cut gather moved no keys: the stitch is untested")
	}
	scatter := metrics.MergeParallel(spans...)
	// One dispatch per shard lane of the scatter, one per part of the gather.
	dispatch := int64(2*parts) * laneDispatchCost
	if want := int64(scatter.Total()) + dispatch + slowest + stitch.Nanos(); int64(trav.Total()) != want {
		t.Errorf("critical path %d, want lanes %d + dispatch %d + slowest part %d + stitch %d = %d",
			int64(trav.Total()), int64(scatter.Total()), dispatch, slowest, stitch.Nanos(), want)
	}
	if want := scatter.CPUNanos + dispatch + sum + stitch.Nanos(); trav.CPUNanos != want {
		t.Errorf("CPU %d, want lanes %d + dispatch %d + parts %d + stitch %d = %d",
			trav.CPUNanos, scatter.CPUNanos, dispatch, sum, stitch.Nanos(), want)
	}
	if want := int64(parts)*laneDispatchCost + slowest + stitch.Nanos(); gather != want {
		t.Errorf("LastGather %d, want %d", gather, want)
	}

	ss := se.NewSession()
	if _, err := ss.RunOps(ops); err != nil {
		t.Fatalf("session RunOps: %v", err)
	}
	if want := dispatch + sum + stitch.Nanos(); ss.Meter().Nanos() != want {
		t.Errorf("session meter %d, want dispatch %d + parts %d + stitch %d = %d",
			ss.Meter().Nanos(), dispatch, sum, stitch.Nanos(), want)
	}
}

// TestReopenSharded crashes every shard device and recovers the sharded
// engine from them, checking results and stamp validation.
func TestReopenSharded(t *testing.T) {
	files, d, _ := corpus(t, 56, 4, 200, 25)
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	se, err := NewSharded(gs, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	want, err := analytics.WordCount(se)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	devs := make([]*nvm.SimDevice, se.NumShards())
	for i := range devs {
		devs[i] = se.Shard(i).Device()
		if err := devs[i].Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	re, infos, err := ReopenSharded(devs, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if len(infos) != 2 {
		t.Fatalf("got %d recovery infos, want 2", len(infos))
	}
	got, err := analytics.WordCount(re)
	if err != nil {
		t.Fatalf("recovered WordCount: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered sharded word count mismatch")
	}

	// A reordered device set must be rejected by the shard stamps.
	for i := range devs {
		if err := devs[i].Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	if _, _, err := ReopenSharded([]*nvm.SimDevice{devs[1], devs[0]}, d, Options{Sequences: true}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reordered devices: err = %v, want ErrShardMismatch", err)
	}
}

// TestReopenShardedBuildTag checks the build-tag leg of stamp validation:
// a device set mixing shards of differently-tagged builds is rejected, as
// is a set whose tag differs from the caller's expectation — zero included,
// and at K = 1 as at K = 2 — while a consistently tagged set recovers.
func TestReopenShardedBuildTag(t *testing.T) {
	files, d, g := corpus(t, 58, 4, 200, 25)
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	build := func(gs []*cfg.Grammar, tag uint32) []*nvm.SimDevice {
		se, err := NewSharded(gs, d, Options{BuildTag: tag})
		if err != nil {
			t.Fatalf("NewSharded(tag=%08x): %v", tag, err)
		}
		devs := make([]*nvm.SimDevice, se.NumShards())
		for i := range devs {
			devs[i] = se.Shard(i).Device()
			if err := devs[i].Crash(); err != nil {
				t.Fatalf("Crash shard %d: %v", i, err)
			}
		}
		return devs
	}
	a, b := build(gs, 0x1111), build(gs, 0x2222)
	for _, dev := range b { // never reopened successfully, so still the test's
		defer dev.Discard()
	}
	if _, _, err := ReopenSharded([]*nvm.SimDevice{a[0], b[1]}, d, Options{}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mixed-build devices: err = %v, want ErrShardMismatch", err)
	}
	if _, _, err := ReopenSharded(a, d, Options{BuildTag: 0x3333}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("wrong expected tag: err = %v, want ErrShardMismatch", err)
	}
	// A caller expecting tag 0 does not adopt the set's tag.
	if _, _, err := ReopenSharded(a, d, Options{}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("untagged caller: err = %v, want ErrShardMismatch", err)
	}
	// Consistent tags matching the caller's expectation recover (Close last:
	// the recovered engine owns the devices).
	se, _, err := ReopenSharded(a, d, Options{BuildTag: 0x1111})
	if err != nil {
		t.Fatalf("matching tags rejected: %v", err)
	}
	se.Close()

	// One shard: a pool of another build is refused the same way.
	one := build([]*cfg.Grammar{g}, 0x4444)
	if _, _, err := ReopenSharded(one, d, Options{BuildTag: 0x5555}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("K=1 pool of another build: err = %v, want ErrShardMismatch", err)
	}
	se, _, err = ReopenSharded(one, d, Options{BuildTag: 0x4444})
	if err != nil {
		t.Fatalf("K=1 matching tag rejected: %v", err)
	}
	se.Close()
}

// TestNewShardedValidation covers the constructor's error paths.
func TestNewShardedValidation(t *testing.T) {
	files, d, g := corpus(t, 57, 2, 100, 20)
	if _, err := NewSharded(nil, d, Options{}); err == nil {
		t.Error("no grammars accepted")
	}
	// Mismatched ShardDevices length is rejected before any build work.
	dev := nvm.New(nvm.KindNVM, 1<<20)
	defer dev.Discard()
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	if _, err := NewSharded(gs, d, Options{ShardDevices: []*nvm.SimDevice{dev}}); err == nil {
		t.Error("device/shard count mismatch accepted")
	}
	_ = g
}

// TestSingleShardSetMatchesEngine pins the one-shard set to the engine it
// wraps: every op alone and the fused batch, on each corpus under both
// persistence strategies, must return deep-equal results, leave the device
// with field-for-field equal statistics, and model exactly one lane dispatch
// more than the bare engine — no merge charge, no second traversal.
func TestSingleShardSetMatchesEngine(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		files, tokens, vocab int
	}{
		{"small", 51, 4, 200, 30},
		{"manyfiles", 52, 9, 120, 40},
		{"redundant", 53, 6, 300, 15},
	}
	batches := [][]analytics.Op{analytics.Ops()}
	for _, op := range analytics.Ops() {
		batches = append(batches, []analytics.Op{op})
	}
	for _, tc := range cases {
		for _, p := range []Persistence{PhaseLevel, OpLevel} {
			t.Run(tc.name+"/"+p.String(), func(t *testing.T) {
				_, d, g := corpus(t, tc.seed, tc.files, tc.tokens, tc.vocab)
				opts := Options{Sequences: true, Persistence: p}
				for _, ops := range batches {
					// Fresh engines per batch: device statistics are cumulative,
					// and both sides must start from the same build.
					e := newEngine(t, g, d, opts)
					se := newOneShard(t, g, d, opts)
					if got, want := se.DeviceStats(), e.Device().Stats(); got != want {
						t.Fatalf("build: device stats %+v, engine %+v", got, want)
					}
					want, err := e.RunOps(ops)
					if err != nil {
						t.Fatalf("engine RunOps: %v", err)
					}
					got, err := se.RunOps(ops)
					if err != nil {
						t.Fatalf("one-shard RunOps: %v", err)
					}
					label := ops[0].Name()
					if len(ops) > 1 {
						label = "fused"
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: one-shard results differ from the engine's", label)
					}
					if got, want := se.DeviceStats(), e.Device().Stats(); got != want {
						t.Errorf("%s: device stats %+v, engine %+v", label, got, want)
					}
					es, ss := e.LastTraversalSpan(), se.LastTraversalSpan()
					if ss.Device != es.Device {
						t.Errorf("%s: traversal device span %+v, engine %+v", label, ss.Device, es.Device)
					}
					if diff := int64(ss.Total() - es.Total()); diff != laneDispatchCost {
						t.Errorf("%s: one-shard traversal models %d ns more than the engine, want exactly %d",
							label, diff, laneDispatchCost)
					}
				}
			})
		}
	}
}
