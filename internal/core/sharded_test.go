package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

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
				// Both shard pipelines must be invariant: independent
				// per-shard inference, and the shared-dictionary path whose
				// grammars went through interning, cross-shard rule
				// unification, and re-materialization.
				gs, err := sequitur.InferShards(files, uint32(d.Len()), k)
				if err != nil {
					t.Fatalf("InferShards(k=%d): %v", k, err)
				}
				sb, err := sequitur.InferShardsShared(files, uint32(d.Len()), k)
				if err != nil {
					t.Fatalf("InferShardsShared(k=%d): %v", k, err)
				}
				for _, p := range []struct {
					path string
					gs   []*cfg.Grammar
				}{{"independent", gs}, {"dedup", sb.Shards}} {
					se, err := NewSharded(p.gs, d, Options{Sequences: true})
					if err != nil {
						t.Fatalf("NewSharded(k=%d, %s): %v", k, p.path, err)
					}
					t.Cleanup(func() { se.Close() })
					got, err := se.RunOps(ops)
					if err != nil {
						t.Fatalf("sharded RunOps(k=%d, %s): %v", k, p.path, err)
					}
					for i, op := range ops {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("k=%d op %s (%s): sharded result differs from unsharded",
								k, op.Name(), p.path)
						}
					}
					// Singleton path and typed engine methods.
					wc, err := analytics.WordCount(se)
					if err != nil {
						t.Fatalf("sharded WordCount(k=%d, %s): %v", k, p.path, err)
					}
					if !reflect.DeepEqual(wc, analytics.MapResult(ops[0], want[0])) {
						t.Errorf("k=%d (%s): WordCount differs from unsharded", k, p.path)
					}
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
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
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
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
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

// TestReopenSharded crashes every shard device and recovers the sharded
// engine from them, checking results and stamp validation.
func TestReopenSharded(t *testing.T) {
	files, d, _ := corpus(t, 56, 4, 200, 25)
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
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
// is a set whose tag differs from the caller's expectation, while a
// consistently tagged set recovers.
func TestReopenShardedBuildTag(t *testing.T) {
	files, d, _ := corpus(t, 58, 4, 200, 25)
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	build := func(tag uint32) []*nvm.SimDevice {
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
	a, b := build(0x1111), build(0x2222)
	for _, dev := range b { // never reopened successfully, so still the test's
		defer dev.Discard()
	}
	if _, _, err := ReopenSharded([]*nvm.SimDevice{a[0], b[1]}, d, Options{}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mixed-build devices: err = %v, want ErrShardMismatch", err)
	}
	if _, _, err := ReopenSharded(a, d, Options{BuildTag: 0x3333}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("wrong expected tag: err = %v, want ErrShardMismatch", err)
	}
	// Consistent tags matching the caller's expectation recover (Close last:
	// the recovered engine owns the devices).
	se, _, err := ReopenSharded(a, d, Options{BuildTag: 0x1111})
	if err != nil {
		t.Fatalf("matching tags rejected: %v", err)
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
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
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
