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

// TestReopenShardedBlankPrimary: a reopen whose shard 1 is a blank device
// fails typed and reloadable, and the failed reopen leaves nothing mapped of
// its own; with every image whole, the reopened set counts what the healthy
// one did.
func TestReopenShardedBlankPrimary(t *testing.T) {
	files, d, _ := corpus(t, 66, 4, 200, 25)
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	opts := Options{Sequences: true, Persistence: OpLevel}
	se, err := NewSharded(gs, d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	want, err := analytics.WordCount(se)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	// Clone the images before Close discards the originals.
	var pcs []*nvm.SimDevice
	for i := 0; i < se.NumShards(); i++ {
		pc, err := se.Shard(i).Device().CloneDurable()
		if err != nil {
			t.Fatalf("clone shard %d: %v", i, err)
		}
		pcs = append(pcs, pc)
	}
	se.Close()

	blank := nvm.New(nvm.KindNVM, pcs[1].Size())
	before := nvm.MappedBytes()
	re, _, err := ReopenSharded([]*nvm.SimDevice{pcs[0], blank}, d, opts)
	if err == nil {
		re.Close()
		t.Fatal("a blank shard reopened")
	}
	var sf *ErrShardFailed
	if !errors.As(err, &sf) || sf.Shard != 1 || !errors.Is(err, ErrNeedsReload) {
		t.Fatalf("err = %v, want ErrShardFailed{Shard: 1} with ErrNeedsReload in chain", err)
	}
	if leaked := nvm.MappedBytes() - before; leaked != 0 {
		t.Errorf("%d bytes of device images still mapped after a refused reopen", leaked)
	}
	if err := blank.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}

	re, infos, err := ReopenSharded(pcs, d, opts)
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if len(infos) != 2 {
		t.Fatalf("got %d recovery infos, want 2", len(infos))
	}
	got, err := analytics.WordCount(re)
	if err != nil {
		t.Fatalf("reopened WordCount: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("reopened word count differs from the healthy run")
	}
}

// TestShardFailedTyped asserts the typed scatter-gather error: an injected
// device failure on one shard surfaces as ErrShardFailed naming that shard,
// with the device error in its chain.
func TestShardFailedTyped(t *testing.T) {
	files, d, _ := corpus(t, 62, 6, 200, 30)
	gs := shardGrammars(t, files, uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true, Persistence: OpLevel})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	const victim = 1
	dev := se.Shard(victim).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	_, err = se.RunOps(analytics.Ops())
	if err == nil {
		t.Fatal("armed shard produced no error")
	}
	var sf *ErrShardFailed
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want ErrShardFailed in chain", err)
	}
	if sf.Shard != victim {
		t.Errorf("ErrShardFailed.Shard = %d, want %d", sf.Shard, victim)
	}
	if !errors.Is(err, nvm.ErrFailPoint) {
		t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
	}

	// Disarming clears the latent failure; the engine is usable again.
	dev.DisarmFailPoints()
	if _, err := analytics.WordCount(se); err != nil {
		t.Fatalf("disarmed WordCount: %v", err)
	}
}

// TestDisarmFailPointsSharded covers the sharded path of DisarmFailPoints: a
// fail point armed on one shard and disarmed before the batch must leave no
// latent failure — the batch and a subsequent one both complete and match.
func TestDisarmFailPointsSharded(t *testing.T) {
	files, d, g := corpus(t, 63, 5, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	want, err := ref.RunOps(analytics.Ops())
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs := shardGrammars(t, files, uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true, Persistence: OpLevel})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	dev := se.Shard(2).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	dev.FailAfterWrites(1)
	dev.DisarmFailPoints()
	for round := 0; round < 2; round++ {
		got, err := se.RunOps(analytics.Ops())
		if err != nil {
			t.Fatalf("round %d: disarmed shard still failed: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: result differs from unsharded", round)
		}
	}
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

// TestDurableImageDeterministic: a shard's durable image is a function of
// its inputs.  Two sets built from the same grammars hold byte-identical
// images at every commit boundary — after construction and after every
// single-op batch — and each image is exactly the one CloneDurable would
// recover from.  TestEngineBuildGolden's pinned CRCs rest on the first half.
func TestDurableImageDeterministic(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		files, tokens, vocab int
	}{
		{"small", 51, 4, 200, 30},
		{"manyfiles", 52, 9, 120, 40},
		{"redundant", 53, 6, 300, 15},
	}
	opts := Options{Sequences: true, Persistence: OpLevel}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files, d, _ := corpus(t, tc.seed, tc.files, tc.tokens, tc.vocab)
			for k := 1; k <= 4; k++ {
				gs := shardGrammars(t, files, uint32(d.Len()), k)
				var twins [2]*ShardedEngine
				for j := range twins {
					se, err := NewSharded(gs, d, opts)
					if err != nil {
						t.Fatalf("NewSharded(k=%d): %v", k, err)
					}
					defer se.Close()
					twins[j] = se
				}
				checkCRCs := func(when string) {
					t.Helper()
					for i := 0; i < k; i++ {
						dev := twins[0].Shard(i).Device()
						crc, err := dev.DurableCRC()
						if err != nil {
							t.Fatalf("k=%d shard %d: DurableCRC: %v", k, i, err)
						}
						twin, err := twins[1].Shard(i).Device().DurableCRC()
						if err != nil {
							t.Fatalf("k=%d shard %d: twin DurableCRC: %v", k, i, err)
						}
						if crc != twin {
							t.Errorf("k=%d shard %d %s: images of one input differ", k, i, when)
						}
						clone, err := dev.CloneDurable()
						if err != nil {
							t.Fatalf("k=%d shard %d: CloneDurable: %v", k, i, err)
						}
						ccrc, cerr := clone.DurableCRC()
						if err := clone.Discard(); err != nil {
							t.Fatalf("discard clone: %v", err)
						}
						if cerr != nil {
							t.Fatalf("k=%d shard %d: clone DurableCRC: %v", k, i, cerr)
						}
						if ccrc != crc {
							t.Errorf("k=%d shard %d %s: recovery image differs from the durable image", k, i, when)
						}
					}
				}
				checkCRCs("after construction")
				for _, op := range analytics.Ops() {
					for _, se := range twins {
						if _, err := analytics.RunAs[any](se, op); err != nil {
							t.Fatalf("k=%d RunOp(%s): %v", k, op.Name(), err)
						}
					}
					checkCRCs("after " + op.Name())
				}
			}
		})
	}
}

// TestShardCrashReopenMatchesHealthy kills shards of a K=4 set mid-batch.
// The batch fails typed, naming the lowest armed shard; the set reopened
// from the crashed images then matches the healthy run bit for bit on every
// registered op, in that batch and the next, with one lane per shard.
func TestShardCrashReopenMatchesHealthy(t *testing.T) {
	files, d, g := corpus(t, 64, 8, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs := shardGrammars(t, files, uint32(d.Len()), 4)
	opts := Options{Sequences: true, Persistence: OpLevel}
	for _, tc := range []struct {
		name  string
		armed []int
	}{
		{"one shard", []int{2}},
		{"two shards", []int{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			se, err := NewSharded(gs, d, opts)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			for _, i := range tc.armed {
				dev := se.Shard(i).Device()
				dev.FailFromPersistEvent(dev.PersistEvents() + 3)
			}
			_, err = se.RunOps(ops)
			var sf *ErrShardFailed
			if !errors.As(err, &sf) || sf.Shard != tc.armed[0] {
				se.Close()
				t.Fatalf("err = %v, want ErrShardFailed{Shard: %d}", err, tc.armed[0])
			}
			if !errors.Is(err, nvm.ErrFailPoint) {
				t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
			}
			devs := make([]*nvm.SimDevice, se.NumShards())
			for i := range devs {
				if devs[i], err = se.Shard(i).Device().CloneDurable(); err != nil {
					t.Fatalf("clone shard %d: %v", i, err)
				}
				if err := devs[i].Crash(); err != nil {
					t.Fatalf("crash clone %d: %v", i, err)
				}
			}
			se.Close()
			re, _, err := ReopenSharded(devs, d, opts)
			if err != nil {
				for _, dev := range devs {
					dev.Discard()
				}
				t.Fatalf("ReopenSharded: %v", err)
			}
			defer re.Close()
			for round := 0; round < 2; round++ {
				got, err := re.RunOps(ops)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, op := range ops {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("round %d op %s: result differs from healthy run", round, op.Name())
					}
				}
				tails := re.LastLaneTails()
				if len(tails) != re.NumShards() {
					t.Errorf("round %d: %d lane tails for %d shards, want one lane per shard", round, len(tails), re.NumShards())
				}
				for l, tail := range tails {
					if tail <= 0 {
						t.Errorf("round %d lane %d tail = %d, want > 0", round, l, tail)
					}
				}
			}
		})
	}
}

// TestShardFailsTypedEveryTime fails one shard in three successive batches.
// Every failure is typed and names the shard, and the batch after each
// disarm matches the healthy run: a failed batch leaves nothing behind that
// the next one sees.
func TestShardFailsTypedEveryTime(t *testing.T) {
	files, d, g := corpus(t, 67, 6, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	se, err := NewSharded(gs, d, Options{Sequences: true, Persistence: OpLevel})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	const victim = 1
	dev := se.Shard(victim).Device()
	for round := 0; round < 3; round++ {
		dev.FailFromPersistEvent(dev.PersistEvents())
		_, err := se.RunOps(ops)
		var sf *ErrShardFailed
		if !errors.As(err, &sf) || sf.Shard != victim {
			t.Fatalf("round %d: err = %v, want ErrShardFailed{Shard: %d}", round, err, victim)
		}
		if !errors.Is(err, nvm.ErrFailPoint) {
			t.Errorf("round %d: err = %v, want nvm.ErrFailPoint in chain", round, err)
		}
		dev.DisarmFailPoints()
		got, err := se.RunOps(ops)
		if err != nil {
			t.Fatalf("round %d: disarmed batch: %v", round, err)
		}
		for i, op := range ops {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d op %s: result differs from healthy run", round, op.Name())
			}
		}
	}
}

// TestReopenShardedRejectsForeignImage offers a reopen shard 0's image in
// shard 1's place, on equal-sized pools so the image fits.  The reopen fails
// typed, naming shard 1 with ErrShardMismatch in its chain, leaves both
// devices with the caller and maps nothing of its own.
func TestReopenShardedRejectsForeignImage(t *testing.T) {
	files, d, _ := corpus(t, 68, 4, 200, 25)
	gs := shardGrammars(t, files, uint32(d.Len()), 2)
	opts := Options{Sequences: true, Persistence: OpLevel}
	var size int64
	for _, g := range gs {
		n, err := PoolEstimate(g, opts)
		if err != nil {
			t.Fatalf("PoolEstimate: %v", err)
		}
		size = max(size, n)
	}
	o := opts
	o.ShardDevices = []*nvm.SimDevice{nvm.New(nvm.KindNVM, size), nvm.New(nvm.KindNVM, size)}
	se, err := NewSharded(gs, d, o)
	if err != nil {
		for _, dev := range o.ShardDevices {
			dev.Discard()
		}
		t.Fatalf("NewSharded: %v", err)
	}
	var foreign [2]*nvm.SimDevice
	for i := range foreign {
		if foreign[i], err = se.Shard(0).Device().CloneDurable(); err != nil {
			t.Fatalf("clone shard 0: %v", err)
		}
		defer foreign[i].Discard()
	}
	se.Close()
	before := nvm.MappedBytes()
	re, _, err := ReopenSharded(foreign[:], d, opts)
	if err == nil {
		re.Close()
		t.Fatal("shard 0's image reopened as shard 1")
	}
	var sf *ErrShardFailed
	if !errors.As(err, &sf) || sf.Shard != 1 {
		t.Fatalf("err = %v, want ErrShardFailed{Shard: 1}", err)
	}
	if !errors.Is(err, ErrShardMismatch) {
		t.Errorf("err = %v, want ErrShardMismatch in chain", err)
	}
	if leaked := nvm.MappedBytes() - before; leaked != 0 {
		t.Errorf("%d bytes of device images still mapped after a refused reopen", leaked)
	}
}
