package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
	"github.com/text-analytics/ntadoc/internal/tadoc"
)

// storedRun reads file doc's root run from e's pool as a map from sequence
// ID to count, failing unless its IDs are strictly ascending.
func storedRun(t *testing.T, e *Engine, doc int) map[uint32]uint64 {
	t.Helper()
	out := map[uint32]uint64{}
	off := int64(e.runsAcc.Uint64(int64(doc) * 8))
	if off == 0 {
		return out
	}
	n := int64(e.pool.AccessorAt(off, 4).Uint32(0))
	flat := make([]uint32, 2*n)
	e.pool.AccessorAt(off+4, 8*n).Uint32s(0, flat)
	for i := 0; i < len(flat); i += 2 {
		if i > 0 && flat[i] <= flat[i-2] {
			t.Fatalf("file %d: run ID %d follows %d", doc, flat[i], flat[i-2])
		}
		out[flat[i]] = uint64(flat[i+1])
	}
	return out
}

// interned maps DRAM window counts through e's sequence dictionary.
func interned(t *testing.T, e *Engine, counts map[analytics.Seq]uint64) map[uint32]uint64 {
	t.Helper()
	ids := make(map[analytics.Seq]uint32, len(e.seqList))
	for id, q := range e.seqList {
		ids[q] = uint32(id)
	}
	out := make(map[uint32]uint64, len(counts))
	for q, c := range counts {
		id, ok := ids[q]
		if !ok {
			t.Fatalf("window %v was never interned", q)
		}
		out[id] = c
	}
	return out
}

// TestRootRunsAreTheRootWindows: each file's stored run is exactly the
// windows its segment of the root spans, interned, in ascending ID order;
// the runs add up to the root's windows; and the sequence tasks built on
// them equal the DRAM engine's — on the engine path and in a session, on the
// three oracle corpora and dataset A's shape (one file), unsharded and
// two-way sharded, in both per-file directions, pruned and raw.
func TestRootRunsAreTheRootWindows(t *testing.T) {
	type shape struct {
		name                 string
		seed                 int64
		files, tokens, vocab int
	}
	shapes := make([]shape, 0, len(oracleCorpora)+1)
	for _, c := range oracleCorpora {
		shapes = append(shapes, shape{c.name, c.seed, c.files, c.tokens, c.vocab})
	}
	a := datagen.DatasetA.Scaled(0.05)
	shapes = append(shapes, shape{"datasetA", a.Seed, a.Files, a.TokensPer, a.Vocab})
	seqOps := []analytics.Op{analytics.SequenceCountOp{}, analytics.RankedInvertedIndexOp{}}

	for _, sh := range shapes {
		var files [][]uint32
		var d *dict.Dictionary
		if sh.name == "datasetA" {
			files, d = a.GenerateWithDict()
		} else {
			files, d, _ = corpus(t, sh.seed, sh.files, sh.tokens, sh.vocab)
		}
		whole, err := sequitur.Infer(files, uint32(d.Len()))
		if err != nil {
			t.Fatalf("Infer: %v", err)
		}
		dram, err := tadoc.New(whole, d, tadoc.Auto)
		if err != nil {
			t.Fatalf("tadoc.New: %v", err)
		}
		want, err := dram.RunOps(seqOps)
		if err != nil {
			t.Fatalf("DRAM RunOps: %v", err)
		}
		for _, k := range []int{1, 2} {
			gs, err := sequitur.InferShards(files, uint32(d.Len()), k)
			if err != nil {
				t.Fatalf("InferShards: %v", err)
			}
			for _, strat := range []Strategy{TopDown, BottomUp} {
				for _, raw := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/K=%d/%s/raw=%v", sh.name, k, strat, raw), func(t *testing.T) {
						se, err := NewSharded(gs, d, Options{Sequences: true, Strategy: strat, NoPruning: raw})
						if err != nil {
							t.Fatalf("NewSharded: %v", err)
						}
						t.Cleanup(func() { se.Close() })
						for i, g := range gs {
							e := se.Shard(i)
							edges, err := analytics.ComputeEdgeInfo(g)
							if err != nil {
								t.Fatalf("ComputeEdgeInfo: %v", err)
							}
							sum := map[uint32]uint64{}
							for doc, seg := range analytics.FileSegments(g) {
								run := storedRun(t, e, doc)
								if w := interned(t, e, analytics.BodySpanningCounts(seg, edges)); !maps.Equal(run, w) {
									t.Errorf("shard %d file %d: run holds %d windows, the segment spans %d", i, doc, len(run), len(w))
								}
								for id, c := range run {
									sum[id] += c
								}
							}
							if w := interned(t, e, analytics.BodySpanningCounts(g.Rules[0], edges)); !maps.Equal(sum, w) {
								t.Errorf("shard %d: runs sum to %d windows, the root spans %d", i, len(sum), len(w))
							}
						}
						for name, x := range map[string]analytics.Executor{"engine": se, "session": se.NewSession()} {
							got, err := x.RunOps(seqOps)
							if err != nil {
								t.Fatalf("%s RunOps: %v", name, err)
							}
							for j, op := range seqOps {
								if !reflect.DeepEqual(analytics.MapResult(op, got[j]), analytics.MapResult(op, want[j])) {
									t.Errorf("%s %s differs from the DRAM engine's", name, op.Name())
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestReopenRejectsCorruptRun: a root run's length word is checked at
// reopen.  One pointing past the pool, or past the initialized region while
// inside the pool, fails Reopen and ReopenSharded with ErrNeedsReload
// instead of a later session's read.
func TestReopenRejectsCorruptRun(t *testing.T) {
	_, d, g := corpus(t, 75, 3, 200, 30)
	path := t.TempDir() + "/pool.nvm"
	e, err := New(g, d, Options{Path: path, Sequences: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	off := int64(e.runsAcc.Uint64(0))
	initTop, size := e.initTop, e.pool.Size()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if off == 0 {
		t.Fatal("file 0 spans no window; pick a corpus whose first file does")
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{
		uint32(min((size-off)/8+1, 1<<31)), // past the pool
		uint32((initTop-off-4)/8 + 1),      // inside the pool, past the initialized region
	} {
		for _, sharded := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/sharded=%v", n, sharded), func(t *testing.T) {
				img := append([]byte(nil), clean...)
				binary.LittleEndian.PutUint32(img[off:], n)
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				dev, err := nvm.Open(nvm.KindNVM, path, 0)
				if err != nil {
					t.Fatalf("Open device: %v", err)
				}
				defer dev.Discard()
				if sharded {
					_, _, err = ReopenSharded([]*nvm.SimDevice{dev}, d, Options{Sequences: true})
				} else {
					_, _, err = Reopen(dev, d, Options{Sequences: true})
				}
				if !errors.Is(err, ErrNeedsReload) {
					t.Fatalf("reopen with a corrupt run length = %v, want ErrNeedsReload", err)
				}
			})
		}
	}
}
