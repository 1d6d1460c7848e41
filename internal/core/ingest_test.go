package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// refResults computes the six reference results over raw token streams, in
// analytics.Ops() order.
func refResults(t *testing.T, d *dict.Dictionary, files [][]uint32, k int) []any {
	t.Helper()
	want := make([]any, 0, 6)
	for _, op := range analytics.Ops() {
		switch op.(type) {
		case analytics.WordCountOp:
			want = append(want, analytics.RefWordCount(files))
		case analytics.SortOp:
			want = append(want, analytics.RefSort(files, d))
		case analytics.TermVectorsOp:
			want = append(want, analytics.RefTermVector(files, k))
		case analytics.InvertedIndexOp:
			want = append(want, analytics.RefInvertedIndex(files))
		case analytics.SequenceCountOp:
			want = append(want, analytics.RefSequenceCount(files))
		case analytics.RankedInvertedIndexOp:
			want = append(want, analytics.RefRankedInvertedIndex(files))
		default:
			t.Fatalf("unhandled op %s", op.Name())
		}
	}
	return want
}

// newOneShard builds the one-shard set over g — the shape an unsharded
// corpus executes as.
func newOneShard(t testing.TB, g *cfg.Grammar, d *dict.Dictionary, opts Options) *ShardedEngine {
	t.Helper()
	se, err := NewSharded([]*cfg.Grammar{g}, d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })
	return se
}

// crashAndReopen crashes the one-shard set's device and recovers a set from it.
func crashAndReopen(t *testing.T, se *ShardedEngine, d *dict.Dictionary, opts Options) *ShardedEngine {
	t.Helper()
	dev := se.Shard(0).Device()
	if err := dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := ReopenSharded([]*nvm.SimDevice{dev}, d, opts)
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	return re
}

func appendDocs(files [][]uint32, base int, n int) []AppendDoc {
	docs := make([]AppendDoc, 0, n)
	for i := base; i < base+n && i < len(files); i++ {
		docs = append(docs, AppendDoc{Name: fmt.Sprintf("appended%d", i), Tokens: files[i]})
	}
	return docs
}

// checkOps runs the executor's batch and compares each result to the
// reference over the given visible token streams.
func checkOps(t *testing.T, ex analytics.Executor, d *dict.Dictionary, files [][]uint32, label string) {
	t.Helper()
	ops := analytics.Ops()
	got, err := ex.RunOps(ops)
	if err != nil {
		t.Fatalf("%s: RunOps: %v", label, err)
	}
	want := refResults(t, d, files, tvK(ops))
	for i, op := range ops {
		if !reflect.DeepEqual(analytics.MapResult(op, got[i]), want[i]) {
			t.Errorf("%s: op %s differs from reference", label, op.Name())
		}
	}
}

func tvK(ops []analytics.Op) int {
	for _, op := range ops {
		if tv, ok := op.(analytics.TermVectorsOp); ok {
			return tv.K
		}
	}
	return 0
}

// TestAppendBitIdentity: after every append batch (and after a compaction in
// the middle), all six ops — fused in one batch — must be bit-identical to
// the reference over the visible token streams.
func TestAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 71, 10, 200, 30)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	checkOps(t, e, d, files[:base], "pre-append")

	vocab := uint32(d.Len())
	visible := base
	batchSizes := []int{1, 2, 1, 2}
	for bi, n := range batchSizes {
		if err := e.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
			t.Fatalf("Append batch %d: %v", bi, err)
		}
		visible += n
		checkOps(t, e, d, files[:visible], fmt.Sprintf("after batch %d", bi))
		// Sessions opened after the append observe it too.
		checkOps(t, e.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
		if bi == 1 {
			if err := e.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			checkOps(t, e, d, files[:visible], "after compaction")
		}
	}
	if visible != len(files) {
		t.Fatalf("test consumed %d of %d files", visible, len(files))
	}
	st := e.IngestStats()
	if st.Batches != uint64(len(batchSizes)) || st.Docs != uint64(len(files)-base) {
		t.Errorf("stats report %d batches / %d docs, want %d / %d",
			st.Batches, st.Docs, len(batchSizes), len(files)-base)
	}
	if st.Compactions != 1 || st.CompactedDocs == 0 {
		t.Errorf("stats report %d compactions over %d docs, want 1 over >0",
			st.Compactions, st.CompactedDocs)
	}
	if got := e.CorpusEpoch(); got != uint64(len(batchSizes))+1 {
		t.Errorf("corpus epoch %d, want %d (batches + compactions)", got, len(batchSizes)+1)
	}
}

// TestAppendNovelWords: appended documents may extend the shared dictionary;
// results and recovery must account for the grown vocabulary.
func TestAppendNovelWords(t *testing.T) {
	files, d, _ := corpus(t, 72, 4, 150, 25)
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})

	novel := []string{"xenon", "ytterbium"}
	ids := make([]uint32, len(novel))
	for i, w := range novel {
		ids[i] = d.Intern(w)
	}
	doc := []uint32{ids[0], ids[1], ids[0], files[0][0], files[0][1]}
	if err := e.Append([]AppendDoc{{Name: "novel", Tokens: doc}}, uint32(d.Len()), novel); err != nil {
		t.Fatalf("Append: %v", err)
	}
	all := append(append([][]uint32{}, files...), doc)
	checkOps(t, e, d, all, "after novel append")

	// Recovery must re-intern the novel words in order.
	d2 := rebuildDict(t, d, len(d.Words())-len(novel))
	re := crashAndReopen(t, e, d2, Options{Sequences: true, IngestCap: 1 << 20})
	defer re.Close()
	for i, w := range novel {
		id, ok := d2.Lookup(w)
		if !ok || id != ids[i] {
			t.Errorf("recovered dictionary maps %q to (%d, %v), want (%d, true)", w, id, ok, ids[i])
		}
	}
	checkOps(t, re, d2, all, "recovered")
}

// rebuildDict reconstructs the pre-append dictionary: the first n words of d
// in ID order, as a caller reopening from persisted inputs would hold.
func rebuildDict(t *testing.T, d *dict.Dictionary, n int) *dict.Dictionary {
	t.Helper()
	nd := dict.New()
	for _, w := range d.Words()[:n] {
		nd.Intern(w)
	}
	return nd
}

// TestAppendValidation covers the append error contract.
func TestAppendValidation(t *testing.T) {
	files, d, g := corpus(t, 73, 3, 100, 20)
	plain := newOneShard(t, g, d, Options{})
	if err := plain.Append(appendDocs(files, 0, 1), uint32(d.Len()), nil); !errors.Is(err, ErrNoIngest) {
		t.Errorf("append without ingestion: err = %v, want ErrNoIngest", err)
	}
	if _, err := plain.RunOps(analytics.Ops()[:1]); err != nil {
		t.Errorf("plain engine query after ErrNoIngest: %v", err)
	}

	e := newOneShard(t, g, d, Options{IngestCap: 256})
	if err := e.Append(appendDocs(files, 0, 1), uint32(d.Len())-1, nil); err == nil {
		t.Error("shrinking vocabulary accepted")
	}
	if err := e.Append([]AppendDoc{{Name: "bad", Tokens: []uint32{uint32(d.Len()) + 7}}},
		uint32(d.Len()), nil); err == nil {
		t.Error("out-of-vocabulary token accepted")
	}
	// A tiny log fills after a batch or two.
	var full bool
	for i := 0; i < 16; i++ {
		if err := e.Append(appendDocs(files, i%len(files), 1), uint32(d.Len()), nil); err != nil {
			if !errors.Is(err, ErrIngestFull) {
				t.Fatalf("append %d: err = %v, want ErrIngestFull", i, err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Error("256-byte log never filled")
	}
}

// TestIngestRecovery: committed appends survive crash and reopen — batches,
// epoch, and all six results.
func TestIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 74, 8, 180, 30)
	const base = 5
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := e.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	re := crashAndReopen(t, e, d, Options{Sequences: true, IngestCap: 1 << 20})
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	if got := len(re.Shard(0).IngestBatches()); got != len(files)-base {
		t.Errorf("recovered %d batches, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered")

	// Appending continues after recovery.
	if err := re.Append([]AppendDoc{{Name: "post", Tokens: files[0]}}, vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestShardedAppendBitIdentity: the sharded coordinator routes appends to
// shards while numbering documents globally; results must stay bit-identical
// to the unsharded reference at every K, including after per-shard
// compactions.
func TestShardedAppendBitIdentity(t *testing.T) {
	files, d, _ := corpus(t, 75, 10, 180, 30)
	const base = 6
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gs := shardGrammars(t, files[:base], uint32(d.Len()), k)
			se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			t.Cleanup(func() { se.Close() })
			vocab := uint32(d.Len())
			visible := base
			for bi, n := range []int{1, 2, 1} {
				if err := se.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
					t.Fatalf("Append batch %d: %v", bi, err)
				}
				visible += n
				checkOps(t, se, d, files[:visible], fmt.Sprintf("after batch %d", bi))
				checkOps(t, se.NewSession(), d, files[:visible], fmt.Sprintf("session after batch %d", bi))
			}
			// Force-compact every shard with a delta and re-verify.
			if err := se.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			checkOps(t, se, d, files[:visible], "after compaction")
			// And appends keep landing after compaction.
			if err := se.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
				t.Fatalf("post-compaction Append: %v", err)
			}
			checkOps(t, se, d, append(append([][]uint32{}, files[:visible]...), files[0]), "post-compaction append")
		})
	}
}

// TestShardedIngestRecovery: a sharded reopen reassembles the global append
// order from the per-shard logs.
func TestShardedIngestRecovery(t *testing.T) {
	files, d, _ := corpus(t, 76, 9, 150, 25)
	const base = 5
	gs := shardGrammars(t, files[:base], uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	// Runs after the recovered engine's Close: the devices are discarded by
	// then, and this releases the delta engines the first life built.
	defer se.Close()
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	devs := make([]*nvm.SimDevice, se.NumShards())
	for i := range devs {
		devs[i] = se.Shard(i).Device()
		if err := devs[i].Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	re, _, err := ReopenSharded(devs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	if got := re.CorpusEpoch(); got != uint64(len(files)-base) {
		t.Errorf("recovered epoch %d, want %d", got, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered sharded")
	if err := re.Append(appendDocs(files, 0, 1), vocab, nil); err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	checkOps(t, re, d, append(append([][]uint32{}, files...), files[0]), "post-recovery append")
}

// TestDocMapsStrictlyIncrease: the gather merges each unit's ranked lists as
// runs, and analytics.PlanMerge refuses a document map that does not
// strictly increase, or a document two units hold.  So on a real engine every
// pinned tail and delta map must strictly increase, every global document
// must sit in exactly one unit, and each shard's delta map must list the
// global documents its own append log records past the compacted prefix:
// after appends, a compaction, and a sharded reopen that places the
// documents from the append logs.
func TestDocMapsStrictlyIncrease(t *testing.T) {
	files, d, _ := corpus(t, 77, 16, 150, 25)
	const base = 6
	vocab := uint32(d.Len())
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			check := func(se *ShardedEngine, when string) {
				t.Helper()
				pins := se.pinIngest()
				defer pins.release()
				held := make([]bool, pins.nfiles)
				hold := func(i int, what string, docs ...uint32) {
					for j, doc := range docs {
						if j > 0 && doc <= docs[j-1] {
							t.Errorf("%s: shard %d %s map not increasing at %d: %v", when, i, what, j, docs)
						}
						if int(doc) >= len(held) || held[doc] {
							t.Errorf("%s: shard %d %s holds document %d twice or past %d documents", when, i, what, doc, len(held))
							continue
						}
						held[doc] = true
					}
				}
				for i, pin := range pins.pins {
					if pin.tailMap == nil {
						docs := make([]uint32, pin.tail.numFiles)
						for j := range docs {
							docs[j] = se.bases[i] + uint32(j)
						}
						hold(i, "base range", docs...)
					}
					hold(i, "tail", pin.tailMap...)
					hold(i, "delta", pin.deltaMap...)
					var logged []uint32
					for _, b := range se.Shard(i).IngestBatches() {
						for k := range b.Docs {
							logged = append(logged, b.GlobalBase+uint32(k))
						}
					}
					if want := logged[pin.compacted:]; !slices.Equal(pin.deltaMap, want) {
						t.Errorf("%s: shard %d delta map %v, its append log records %v past %d compacted",
							when, i, pin.deltaMap, want, pin.compacted)
					}
				}
				for doc, ok := range held {
					if !ok {
						t.Errorf("%s: no pinned unit holds document %d", when, doc)
					}
				}
			}
			gs := shardGrammars(t, files[:base], vocab, k)
			opts := Options{Sequences: true, Persistence: OpLevel, IngestCap: 1 << 20}
			appendBatches := func(se *ShardedEngine, visible int, when string, sizes ...int) int {
				t.Helper()
				for bi, n := range sizes {
					if err := se.Append(appendDocs(files, visible, n), vocab, nil); err != nil {
						t.Fatalf("%s: Append: %v", when, err)
					}
					visible += n
					check(se, fmt.Sprintf("%s, batch %d", when, bi))
				}
				return visible
			}

			// Appends, a compaction (base maps), more appends, then a crash
			// and a reopen that rebuilds every map from the append logs.
			se, err := NewSharded(gs, d, opts)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			check(se, "built")
			// Runs after the reopened engine's Close, as in
			// TestShardedIngestRecovery.
			defer se.Close()
			visible := appendBatches(se, base, "appended", 1, 2, 1)
			if err := se.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			check(se, "compacted")
			visible = appendBatches(se, visible, "appended after compaction", 2, 1)
			devs := make([]*nvm.SimDevice, se.NumShards())
			for i := range devs {
				devs[i] = se.Shard(i).Device()
				if err := devs[i].Crash(); err != nil {
					t.Fatalf("Crash shard %d: %v", i, err)
				}
			}
			re, _, err := ReopenSharded(devs, d, opts)
			if err != nil {
				t.Fatalf("ReopenSharded: %v", err)
			}
			defer re.Close()
			check(re, "reopened")
			appendBatches(re, visible, "appended after reopen", 2)
		})
	}
}

// TestAppendRoutesToLeastLoadedShard: each batch goes to the appendable
// shard holding the fewest appended documents, the ones compaction folded
// into its tail included (the lowest index on a tie), and the counts survive
// a reopen, which replays every log into a fresh delta.
func TestAppendRoutesToLeastLoadedShard(t *testing.T) {
	files, d, _ := corpus(t, 82, 16, 100, 25)
	const base = 4
	vocab := uint32(d.Len())
	opts := Options{Sequences: true, IngestCap: 1 << 20}
	se, err := NewSharded(shardGrammars(t, files[:base], vocab, 2), d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	// Runs after the reopened engine's Close, as in TestShardedIngestRecovery.
	defer se.Close()
	next := base
	appendTo := func(se *ShardedEngine, n, want int) {
		t.Helper()
		before := len(se.Shard(want).IngestBatches())
		if err := se.Append(appendDocs(files, next, n), vocab, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if got := len(se.Shard(want).IngestBatches()); got != before+1 {
			t.Fatalf("the batch of %d documents at global %d did not go to shard %d", n, next, want)
		}
		next += n
	}
	appendTo(se, 3, 0) // 0 / 0
	if err := se.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	appendTo(se, 1, 1) // 3 compacted / 0
	appendTo(se, 1, 1) // 3 compacted / 1
	appendTo(se, 2, 1) // 3 / 2
	appendTo(se, 1, 0) // 3 / 4
	devs := []*nvm.SimDevice{se.Shard(0).Device(), se.Shard(1).Device()}
	for i, dev := range devs {
		if err := dev.Crash(); err != nil {
			t.Fatalf("Crash shard %d: %v", i, err)
		}
	}
	re, _, err := ReopenSharded(devs, d, opts)
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	defer re.Close()
	appendTo(re, 1, 0) // 4 / 4
	appendTo(re, 1, 1) // 5 / 4
}

// TestReopenRefusesAppendGap: a sharded reopen orders every shard's
// recovered batches globally and refuses, with ErrNeedsReload, logs that do
// not number the appended documents contiguously from the end of the base
// corpus — here shard 0's image from before its batch beside shard 1's from
// after its own, which starts one document past the end.
func TestReopenRefusesAppendGap(t *testing.T) {
	files, d, _ := corpus(t, 81, 8, 100, 25)
	const base = 4
	vocab := uint32(d.Len())
	opts := Options{Sequences: true, IngestCap: 1 << 20}
	se, err := NewSharded(shardGrammars(t, files[:base], vocab, 2), d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	early, err := se.Shard(0).Device().CloneDurable()
	if err != nil {
		t.Fatalf("CloneDurable: %v", err)
	}
	defer early.Discard()
	for i := base; i < base+2; i++ {
		if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if bs := se.Shard(1).IngestBatches(); len(bs) != 1 || bs[0].GlobalBase != base+1 {
		t.Fatalf("shard 1 logged %+v, want one batch at global %d", bs, base+1)
	}
	late := se.Shard(1).Device()
	if err := late.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, _, err := ReopenSharded([]*nvm.SimDevice{early, late}, d, opts); !errors.Is(err, ErrNeedsReload) {
		t.Fatalf("ReopenSharded over a gap in the append numbering: %v, want ErrNeedsReload", err)
	}
}

// TestAppendSurvivesWriteBackAtEveryEvent: the cache may write a dirty line
// back at any moment, and on an eADR platform every store in it is durable at
// power loss.  So an append the device dies inside must leave a log that
// recovers whichever of its unflushed stores reach media.  For every
// persistence event of the second append, the device fails from that event
// on, every store is then written back (a whole-device flush and drain), and
// a clone of the durable image is reopened: the acknowledged first batch
// must be served, and the second must be present whole or absent.
func TestAppendSurvivesWriteBackAtEveryEvent(t *testing.T) {
	files, d, _ := corpus(t, 77, 6, 150, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	vocab := uint32(d.Len())
	for _, p := range []Persistence{PhaseLevel, OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			opts := Options{Sequences: true, Persistence: p, IngestCap: 1 << 20}
			for k := int64(0); ; k++ {
				se, err := NewSharded([]*cfg.Grammar{g}, d, opts)
				if err != nil {
					t.Fatalf("NewSharded: %v", err)
				}
				if err := se.Append(appendDocs(files, base, 1), vocab, nil); err != nil {
					t.Fatalf("Append batch 1: %v", err)
				}
				dev := se.Shard(0).Device()
				dev.FailFromPersistEvent(dev.PersistEvents() + k)
				aerr := se.Append(appendDocs(files, base+1, 1), vocab, nil)
				dev.DisarmFailPoints()
				if aerr == nil {
					se.Close()
					if k == 0 {
						t.Fatal("the append made no persistence event")
					}
					t.Logf("explored %d events", k)
					return
				}
				if err := dev.Flush(0, dev.Size()); err != nil {
					t.Fatalf("event %d: write-back flush: %v", k, err)
				}
				if err := dev.Drain(); err != nil {
					t.Fatalf("event %d: write-back drain: %v", k, err)
				}
				clone, err := dev.CloneDurable()
				se.Close()
				if err != nil {
					t.Fatalf("event %d: CloneDurable: %v", k, err)
				}
				re, _, err := ReopenSharded([]*nvm.SimDevice{clone}, d, opts)
				if err != nil {
					clone.Discard()
					t.Fatalf("event %d: reopen: %v", k, err)
				}
				visible := base + len(re.Shard(0).IngestBatches())
				if visible != base+1 && visible != base+2 {
					t.Errorf("event %d: recovered %d batches, want 1 or 2", k, visible-base)
				} else {
					checkOps(t, re, d, files[:visible], fmt.Sprintf("event %d", k))
				}
				re.Close()
			}
		})
	}
}

// TestAppendCommitStoresOnlyTheWatermark: an append persists its record and
// then the committed watermark — two flushes, two drains — and stores no
// other header word, so bytes 8–31 of the region header stay zero and the
// watermark equals the committed log bytes.
func TestAppendCommitStoresOnlyTheWatermark(t *testing.T) {
	files, d, _ := corpus(t, 78, 6, 150, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	vocab := uint32(d.Len())
	for _, p := range []Persistence{PhaseLevel, OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			se := newOneShard(t, g, d, Options{Sequences: true, Persistence: p, IngestCap: 1 << 20})
			e := se.Shard(0)
			for i := base; i < len(files); i++ {
				before, events := e.Device().Stats(), e.Device().PersistEvents()
				if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				got := e.Device().Stats().Sub(before)
				if got.Flushes != 2 || got.Drains != 2 {
					t.Errorf("append %d: %d flushes, %d drains, want 2, 2", i, got.Flushes, got.Drains)
				}
				if n := e.Device().PersistEvents() - events; n != 4 {
					t.Errorf("append %d: %d persistence events, want 4", i, n)
				}
				acc := e.ingest.acc
				for off := int64(8); off < ingOffCap; off += 8 {
					if w := acc.Uint64(off); w != 0 {
						t.Errorf("append %d: header word at %d is %d, want 0", i, off, w)
					}
				}
				st := e.IngestStats()
				if w := int64(acc.Uint64(ingOffCommitted)); w != st.LogBytes {
					t.Errorf("append %d: watermark %d, want %d committed bytes", i, w, st.LogBytes)
				}
				if c := int64(acc.Uint64(ingOffCap)); c != st.LogCap {
					t.Errorf("append %d: capacity word %d, want %d", i, c, st.LogCap)
				}
			}
		})
	}
}

// TestRecoveryIgnoresStaleHeaderCounts: recovery derives batch, document and
// vocabulary counts from the records the watermark covers, so whatever an
// older pool left in header bytes 8–31 — here counts that disagree with the
// log — the committed batches are replayed whole.
func TestRecoveryIgnoresStaleHeaderCounts(t *testing.T) {
	files, d, _ := corpus(t, 79, 7, 160, 25)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	opts := Options{Sequences: true, IngestCap: 1 << 20}
	se := newOneShard(t, g, d, opts)
	vocab := uint32(d.Len())
	for i := base; i < len(files); i++ {
		if err := se.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	acc := se.Shard(0).ingest.acc
	for off, w := range map[int64]uint64{8: 1, 16: 99, 24: 7} {
		acc.PutUint64(off, w)
	}
	if err := acc.Flush(8, 24); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := se.Shard(0).Device().Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	re := crashAndReopen(t, se, d, opts)
	defer re.Close()
	if got, want := len(re.Shard(0).IngestBatches()), len(files)-base; got != want {
		t.Errorf("recovered %d batches, want %d", got, want)
	}
	if st := re.Shard(0).IngestStats(); st.Batches != uint64(len(files)-base) || st.Docs != uint64(len(files)-base) {
		t.Errorf("recovered stats report %d batches, %d docs, want %d, %d",
			st.Batches, st.Docs, len(files)-base, len(files)-base)
	}
	checkOps(t, re, d, files, "recovered")
}

// TestAppendConcurrentQueries: appends never block queries, and every query
// observes a consistent cut — exactly the first N documents for some N
// between the committed count when it started and when it finished.  Run
// under -race this is the ingestion concurrency test.
func TestAppendConcurrentQueries(t *testing.T) { concurrentIngest(t, 1, false) }

// TestCompactConcurrentQueries is the same oracle with a compaction loop
// beside the appender and the readers, on two shards: every cut a query
// observes, before or after any swap, is exactly a document prefix.  It also
// holds one cut pinned across two compactions and leaves one session idle
// across them — the engines a pin names must stay mapped however many cuts
// replace it (a use-after-discard is a fault on an unmapped image, not a
// wrong answer), and a session whose tail was discarded meanwhile must
// reopen on the pinned one without touching the old.
func TestCompactConcurrentQueries(t *testing.T) { concurrentIngest(t, 2, true) }

// compactionCount is how many compactions the test's compaction loop has
// published, for goroutines that wait for the next one.
type compactionCount struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    uint64
	off  bool // the loop has stopped: nothing more will be published
}

func (c *compactionCount) set(n uint64, off bool) {
	c.mu.Lock()
	c.n, c.off = n, c.off || off
	c.mu.Unlock()
	c.cond.Broadcast()
}

// await blocks until n compactions have been published (true) or the loop
// has stopped short of that (false).
func (c *compactionCount) await(n uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.n < n && !c.off {
		c.cond.Wait()
	}
	return c.n >= n
}

// pinnedDocs lists the global documents a pinned engine holds, in its own
// document order: the explicit map, or numFiles documents from base.
func pinnedDocs(files [][]uint32, docMap []uint32, base, numFiles uint32) [][]uint32 {
	var docs [][]uint32
	if docMap == nil {
		return files[base : base+numFiles]
	}
	for _, g := range docMap {
		docs = append(docs, files[g])
	}
	return docs
}

func concurrentIngest(t *testing.T, k int, compact bool) {
	files, d, _ := corpus(t, 77, 24, 120, 25)
	const base = 4
	gs := shardGrammars(t, files[:base], uint32(d.Len()), k)
	e, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	vocab := uint32(d.Len())

	refs := make(map[int][]any, len(files)-base+1)
	ops := analytics.Ops()
	for n := base; n <= len(files); n++ {
		refs[n] = refResults(t, d, files[:n], tvK(ops))
	}
	// observe runs the batch and holds it to the reference for the document
	// count it saw.
	observe := func(ex analytics.Executor) error {
		got, err := ex.RunOps(ops)
		if err != nil {
			return err
		}
		tv, ok := got[2].([][]analytics.WordFreq)
		if !ok {
			return fmt.Errorf("op 2 returned %T, want term vectors", got[2])
		}
		want, ok := refs[len(tv)]
		if !ok {
			return fmt.Errorf("query observed %d documents, outside [%d, %d]", len(tv), base, len(files))
		}
		for i, op := range ops {
			if !reflect.DeepEqual(analytics.MapResult(op, got[i]), want[i]) {
				return fmt.Errorf("op %s inconsistent with the %d-document cut", op.Name(), len(tv))
			}
		}
		return nil
	}

	compactions := &compactionCount{}
	compactions.cond = sync.NewCond(&compactions.mu)
	appended := make(chan struct{}) // closed once the appender is through
	pinned := make(chan struct{})   // closed once the holder has its pin
	if !compact {
		compactions.set(0, true)
		close(pinned)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Appender: one document a batch.  Beside a compaction loop it retries
	// the appends a merge refuses, lets every other append race the loop
	// freely and waits out a compaction after the rest, so the run has at
	// least (len(files)-base)/2 swaps whatever the scheduler does; it stops
	// after four documents until the holder has pinned its cut.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appended)
		for i := base; i < len(files); i++ {
			if i == base+4 {
				<-pinned
			}
			before := e.IngestStats().Compactions
			for {
				err := e.Append(appendDocs(files, i, 1), vocab, nil)
				if err == nil {
					break
				}
				if !compact || !errors.Is(err, ErrCompacting) {
					fail("Append %d: %v", i, err)
					return
				}
				runtime.Gosched()
			}
			if (i-base)%2 == 1 {
				compactions.await(before + 1)
			}
		}
	}()
	if compact {
		// Compaction loop: fold whatever delta there is, until the appender
		// is through.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := e.Compact(); err != nil {
					fail("Compact: %v", err)
				}
				select {
				case <-appended:
					compactions.set(e.IngestStats().Compactions, true)
					return
				default:
					compactions.set(e.IngestStats().Compactions, false)
					runtime.Gosched()
				}
			}
		}()
		// Holder: once a compacted tail serves, pin every shard's cut and
		// run a session over it, sit out two more compactions, then read
		// every pinned engine and wake the idle session.
		wg.Add(1)
		go func() {
			defer wg.Done()
			compactions.await(1)
			idle := e.NewSession()
			if err := observe(idle); err != nil {
				fail("idle session, first run: %v", err)
			}
			pins := e.pinIngest()
			defer pins.release()
			c0 := e.IngestStats().Compactions
			close(pinned)
			if !compactions.await(c0 + 2) {
				fail("the compaction loop stopped %d compactions after the pin, want 2", e.IngestStats().Compactions-c0)
				return
			}
			for i, pin := range pins.pins {
				sh := e.Shard(i)
				type pinnedEngine struct {
					eng  *Engine
					docs [][]uint32
				}
				units := []pinnedEngine{{pin.tail, pinnedDocs(files, pin.tailMap, e.bases[i], sh.numFiles)}}
				if pin.delta != nil {
					units = append(units, pinnedEngine{pin.delta, pinnedDocs(files, pin.deltaMap, 0, 0)})
				}
				for _, u := range units {
					got, err := u.eng.NewSession().RunOps(ops)
					if err != nil {
						fail("pinned shard %d: %v", i, err)
						continue
					}
					want := refResults(t, d, u.docs, tvK(ops))
					for j, op := range ops {
						if !reflect.DeepEqual(analytics.MapResult(op, got[j]), want[j]) {
							fail("pinned shard %d: op %s differs from its %d documents two compactions on", i, op.Name(), len(u.docs))
						}
					}
				}
			}
			if err := observe(idle); err != nil {
				fail("idle session, two compactions on: %v", err)
			}
		}()
	}
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession()
			for iter := 0; ; iter++ {
				if err := observe(s); err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				select {
				case <-appended:
					if iter >= 8 {
						return
					}
				default:
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkOps(t, e, d, files, "after concurrent phase")
	if st := e.IngestStats(); compact && st.Compactions < uint64(len(files)-base)/2 {
		t.Errorf("%d compactions ran beside the readers, want at least %d", st.Compactions, (len(files)-base)/2)
	}
}

// TestCompactorWorker: the worker sleeps while the delta is at or under the
// thresholds — no append wakes it — and the append that crosses them leads
// to a compaction.  A wake-up sent while no worker runs is taken by the next
// one to start.  Results stay correct throughout.
func TestCompactorWorker(t *testing.T) {
	const base = 4
	files, d, _ := corpus(t, 78, base+2*(compactDeltaDocs+1), 40, 25)
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newOneShard(t, g, d, Options{Sequences: true, IngestCap: 1 << 20})
	vocab := uint32(d.Len())
	next := base
	appendN := func(n int) {
		t.Helper()
		if err := e.Append(appendDocs(files, next, n), vocab, nil); err != nil {
			t.Fatalf("Append %d documents at %d: %v", n, next, err)
		}
		next += n
	}
	waitCompactions := func(want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st := e.IngestStats()
			if st.CompactionFailures != 0 {
				t.Fatalf("%d compactions failed after %d ran", st.CompactionFailures, st.Compactions)
			}
			if st.Compactions == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d compactions, want %d", st.Compactions, want)
			}
		}
	}

	c := StartCompactor(e)
	defer c.Stop()
	appendN(compactDeltaDocs)
	if st := e.IngestStats(); st.DeltaDocs != compactDeltaDocs || len(e.due) != 0 {
		t.Fatalf("a delta of %d documents left %d wake-ups pending, want %d documents and none",
			st.DeltaDocs, len(e.due), compactDeltaDocs)
	}
	if n := e.IngestStats().Compactions; n != 0 {
		t.Fatalf("compactor ran %d times under the thresholds", n)
	}
	appendN(1)
	waitCompactions(1)
	c.Stop()
	checkOps(t, e, d, files[:next], "after background compaction")

	appendN(compactDeltaDocs + 1)
	if len(e.due) != 1 {
		t.Fatalf("%d wake-ups pending past the thresholds with no worker, want 1", len(e.due))
	}
	c = StartCompactor(e)
	defer c.Stop()
	waitCompactions(2)
	c.Stop()
	checkOps(t, e, d, files[:next], "after the wake-up sent before the worker")
	if st := e.IngestStats(); st.Compactions != 2 || st.DeltaDocs != 0 {
		t.Errorf("stats report %d compactions and %d delta documents, want 2 and 0", st.Compactions, st.DeltaDocs)
	}
}

// TestIngestStatsReadsTheCut: a shard's delta size is the one the published
// cut recorded when its delta engine was built — the same document and
// body-symbol counts a snapshot of the builder gives — so reading it
// allocates nothing.  The thresholds sit where they always have: more than
// 64 documents, or more than 1 MiB of body at 8 bytes per symbol.
func TestIngestStatsReadsTheCut(t *testing.T) {
	files, d, _ := corpus(t, 83, 24, 120, 30)
	const base = 8
	vocab := uint32(d.Len())
	se, err := NewSharded(shardGrammars(t, files[:base], vocab, 2), d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })
	next := base
	for _, n := range []int{3, 2, 4, 1, 2} {
		if err := se.Append(appendDocs(files, next, n), vocab, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
		next += n
	}
	var docs int
	var symbols int64
	for i := 0; i < se.NumShards(); i++ {
		sh := se.Shard(i)
		g := sh.ingest.db.Grammar()
		if g == nil {
			t.Fatalf("shard %d has no delta", i)
		}
		want := g.ComputeStats()
		if st := sh.IngestStats(); st.DeltaDocs != int(g.NumFiles) || st.DeltaSymbols != want.BodySymbols {
			t.Errorf("shard %d reads %d delta documents and %d symbols, its builder's snapshot %d and %d",
				i, st.DeltaDocs, st.DeltaSymbols, g.NumFiles, want.BodySymbols)
		}
		docs += int(g.NumFiles)
		symbols += want.BodySymbols
	}
	if st := se.IngestStats(); st.DeltaDocs != docs || st.DeltaSymbols != symbols {
		t.Errorf("set reads %d delta documents and %d symbols, want %d and %d", st.DeltaDocs, st.DeltaSymbols, docs, symbols)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { se.IngestStats() }); n != 0 {
			t.Errorf("IngestStats allocates %v times per read, want 0", n)
		}
	}
	for _, tc := range []struct {
		docs    int
		symbols int64
		over    bool
	}{
		{64, 0, false},
		{65, 0, true},
		{1, 1 << 17, false},
		{1, 1<<17 + 1, true},
	} {
		if got := overThreshold(&servingCut{deltaMap: make([]uint32, tc.docs), deltaSymbols: tc.symbols}); got != tc.over {
			t.Errorf("a delta of %d documents and %d symbols: over the thresholds %v, want %v", tc.docs, tc.symbols, got, tc.over)
		}
	}
}

// TestCompactPastShardWithoutBase: a reopened shard recovered its delta from
// its append log and has no base grammar to fold it into.  Compacting a
// reopened set fails typed on every such shard, names each one, counts each
// failure in the set's stats, and leaves the shards serving the acknowledged
// appends.
func TestCompactPastShardWithoutBase(t *testing.T) {
	files, d, _ := corpus(t, 84, 10, 120, 30)
	const base = 8
	vocab := uint32(d.Len())
	opts := Options{Sequences: true, Persistence: OpLevel, IngestCap: 1 << 20}
	se, err := NewSharded(shardGrammars(t, files[:base], vocab, 2), d, opts)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	devs := make([]*nvm.SimDevice, se.NumShards())
	for i := range devs {
		if devs[i], err = se.Shard(i).Device().CloneDurable(); err != nil {
			t.Fatalf("clone shard %d: %v", i, err)
		}
	}
	se.Close()
	re, _, err := ReopenSharded(devs, d, opts)
	if err != nil {
		t.Fatalf("ReopenSharded: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	for i := base; i < base+2; i++ { // one document on each shard
		if err := re.Append(appendDocs(files, i, 1), vocab, nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	err = re.Compact()
	if !errors.Is(err, ErrNoBaseGrammar) || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Compact = %v, want shard 0's and shard 1's %v", err, ErrNoBaseGrammar)
	}
	if n := re.IngestStats().CompactionFailures; n != 2 {
		t.Errorf("%d compaction failures counted, want 2", n)
	}
	for i := range devs {
		if st := re.Shard(i).IngestStats(); st.DeltaDocs != 1 || st.Compactions != 0 {
			t.Errorf("shard %d: %d delta documents after %d compactions, want 1 after 0",
				i, st.DeltaDocs, st.Compactions)
		}
	}
	checkOps(t, re, d, files[:base+2], "after a compaction the reopened shards refused")
}

// TestCompactionBoundsServingEngines: a compaction replaces the shard's tail,
// it does not add one.  With no query in flight, every append-then-compact
// round leaves each shard holding its own engine and at most one tail and no
// delta, and the device images mapped after twelve rounds are within one
// tail's of what they were after two — not ten tails more.
func TestCompactionBoundsServingEngines(t *testing.T) {
	files, d, _ := corpus(t, 79, 16, 150, 30)
	const base, rounds = 4, 12
	for k := 1; k <= 2; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gs := shardGrammars(t, files[:base], uint32(d.Len()), k)
			se, err := NewSharded(gs, d, Options{Sequences: true, IngestCap: 1 << 20})
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			t.Cleanup(func() { se.Close() })
			var afterTwo int64
			for r := 1; r <= rounds; r++ {
				if err := se.Append(appendDocs(files, base+r-1, 1), uint32(d.Len()), nil); err != nil {
					t.Fatalf("round %d: Append: %v", r, err)
				}
				for i := 0; i < k; i++ {
					if n := se.Shard(i).IngestStats().ServingEngines; n > 3 {
						t.Errorf("round %d: shard %d keeps %d engines with a delta, want at most 3", r, i, n)
					}
				}
				if err := se.Compact(); err != nil {
					t.Fatalf("round %d: Compact: %v", r, err)
				}
				for i := 0; i < k; i++ {
					st := se.Shard(i).IngestStats()
					want := 1 // its own engine
					if st.Compactions > 0 {
						want = 2 // and the one tail that replaced its DAG
					}
					if st.ServingEngines != want || st.DeltaDocs != 0 {
						t.Errorf("round %d: shard %d keeps %d engines and %d delta documents after %d compactions, want %d and 0",
							r, i, st.ServingEngines, st.DeltaDocs, st.Compactions, want)
					}
				}
				if r == 2 {
					afterTwo = nvm.MappedBytes()
				}
			}
			if got := se.IngestStats().Compactions; got != rounds {
				t.Fatalf("%d compactions in %d rounds", got, rounds)
			}
			var tail int64 // the largest tail's two images
			for i := 0; i < k; i++ {
				tail = max(tail, 2*se.Shard(i).ingest.current().tail.Device().Size())
			}
			if grew := nvm.MappedBytes() - afterTwo; grew > tail {
				t.Errorf("mapped images grew %d bytes over ten compactions; one tail maps %d", grew, tail)
			}
			checkOps(t, se, d, files[:base+rounds], "after the rounds")
		})
	}
}

// TestCloseUnderPinnedCut: Close gives up the set's own references and
// nothing more.  The tail and delta engines of a cut that is still pinned
// stay mapped and readable past Close, and go — every byte — with the pin.
func TestCloseUnderPinnedCut(t *testing.T) {
	files, d, _ := corpus(t, 80, 8, 150, 30)
	const base = 4
	g, err := sequitur.Infer(files[:base], uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	before := nvm.MappedBytes()
	se, err := NewSharded([]*cfg.Grammar{g}, d, Options{Sequences: true, IngestCap: 1 << 20})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if err := se.Append(appendDocs(files, base, 2), uint32(d.Len()), nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := se.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := se.Append(appendDocs(files, base+2, 2), uint32(d.Len()), nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	cut := se.Shard(0).ingest.pin()
	if cut.tail == se.Shard(0) || cut.delta == nil {
		t.Fatalf("pinned cut {tail is the shard engine: %v, delta: %v}, want a compacted tail and a delta",
			cut.tail == se.Shard(0), cut.delta != nil)
	}
	pinnedBytes := 2 * (cut.tail.Device().Size() + cut.delta.Device().Size())
	if err := se.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := nvm.MappedBytes() - before; got != pinnedBytes {
		t.Errorf("%d bytes of images mapped after Close under a pin, want the pinned tail's and delta's %d", got, pinnedBytes)
	}
	checkOps(t, cut.tail.NewSession(), d, files[:base+2], "pinned tail after Close")
	checkOps(t, cut.delta.NewSession(), d, files[base+2:base+4], "pinned delta after Close")
	cut.release()
	if got := nvm.MappedBytes() - before; got != 0 {
		t.Errorf("%d bytes of images still mapped after the last pin's release", got)
	}
}
