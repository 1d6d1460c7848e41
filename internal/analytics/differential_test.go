package analytics_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
	"github.com/text-analytics/ntadoc/internal/tadoc"
	"github.com/text-analytics/ntadoc/internal/uncomp"
)

// This file is the single cross-executor differential test: every
// registered op runs on every executor over several randomized corpora, and
// each result is compared, in its map form (MapResult), against the
// uncompressed reference implementation.  It replaces the per-task reference checks that the
// tadoc and uncomp packages used to carry individually.

// refFor computes the reference result for op over the raw token files.
func refFor(t *testing.T, op analytics.Op, files [][]uint32, d *dict.Dictionary) any {
	t.Helper()
	switch o := op.(type) {
	case analytics.WordCountOp:
		return analytics.RefWordCount(files)
	case analytics.SortOp:
		return analytics.RefSort(files, d)
	case analytics.TermVectorsOp:
		return analytics.RefTermVector(files, o.K)
	case analytics.InvertedIndexOp:
		return analytics.RefInvertedIndex(files)
	case analytics.SequenceCountOp:
		return analytics.RefSequenceCount(files)
	case analytics.RankedInvertedIndexOp:
		return analytics.RefRankedInvertedIndex(files)
	}
	t.Fatalf("no reference implementation for op %v", op.Task())
	return nil
}

// executorCase builds one executor under test for a prepared corpus.
type executorCase struct {
	name  string
	build func(t *testing.T, files [][]uint32, d *dict.Dictionary, g *cfg.Grammar) analytics.Executor
}

func newCore(t *testing.T, g *cfg.Grammar, d *dict.Dictionary, s core.Strategy) *core.Engine {
	t.Helper()
	e, err := core.New(g, d, core.Options{Sequences: true, Strategy: s})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

var executors = []executorCase{
	{"core-topdown", func(t *testing.T, _ [][]uint32, d *dict.Dictionary, g *cfg.Grammar) analytics.Executor {
		return newCore(t, g, d, core.TopDown)
	}},
	{"core-bottomup", func(t *testing.T, _ [][]uint32, d *dict.Dictionary, g *cfg.Grammar) analytics.Executor {
		return newCore(t, g, d, core.BottomUp)
	}},
	{"core-session", func(t *testing.T, _ [][]uint32, d *dict.Dictionary, g *cfg.Grammar) analytics.Executor {
		return newCore(t, g, d, core.TopDown).NewSession()
	}},
	{"tadoc", func(t *testing.T, _ [][]uint32, d *dict.Dictionary, g *cfg.Grammar) analytics.Executor {
		e, err := tadoc.New(g, d)
		if err != nil {
			t.Fatalf("tadoc.New: %v", err)
		}
		return e
	}},
	{"uncomp", func(t *testing.T, files [][]uint32, d *dict.Dictionary, _ *cfg.Grammar) analytics.Executor {
		dev := nvm.New(nvm.KindNVM, uncomp.RequiredSize(files)+4096)
		t.Cleanup(func() { dev.Discard() })
		e, err := uncomp.Load(dev, d, files)
		if err != nil {
			t.Fatalf("uncomp.Load: %v", err)
		}
		return e
	}},
}

// The randomized corpora: different shapes stress different strategy and
// batching paths (few large files vs. many small ones, dense vs. sparse
// phrase reuse).  "many" has more files than tadoc's top-down threshold, so
// tadoc runs its per-file tasks bottom-up there and top-down on the rest.
var corpora = []datagen.Spec{
	{Name: "base", Seed: 101, Files: 5, TokensPer: 300, Vocab: 50,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6},
	{Name: "long", Seed: 202, Files: 2, TokensPer: 700, Vocab: 25,
		ZipfS: 1.1, Phrases: 15, PhraseLen: 4, PhraseProb: 0.8},
	{Name: "wide", Seed: 303, Files: 12, TokensPer: 120, Vocab: 80,
		ZipfS: 1.5, Phrases: 40, PhraseLen: 6, PhraseProb: 0.4},
	{Name: "many", Seed: 404, Files: 520, TokensPer: 8, Vocab: 40,
		ZipfS: 1.3, Phrases: 20, PhraseLen: 4, PhraseProb: 0.5},
}

func TestOpsDifferentialAcrossExecutors(t *testing.T) {
	for _, spec := range corpora {
		files, d := spec.GenerateWithDict()
		g, err := sequitur.Infer(files, uint32(d.Len()))
		if err != nil {
			t.Fatalf("%s: Infer: %v", spec.Name, err)
		}
		refs := make(map[analytics.Task]any)
		for _, op := range analytics.Ops() {
			refs[op.Task()] = refFor(t, op, files, d)
		}
		for _, ex := range executors {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, ex.name), func(t *testing.T) {
				x := ex.build(t, files, d, g)
				for _, op := range analytics.Ops() {
					got, err := analytics.RunAs[any](x, op)
					if err != nil {
						t.Fatalf("%v: %v", op.Task(), err)
					}
					if !reflect.DeepEqual(analytics.MapResult(op, got), refs[op.Task()]) {
						t.Errorf("%v: result differs from reference", op.Task())
					}
				}
			})
		}
	}
}

// TestFusedDifferentialAcrossExecutors runs every non-empty subset of the op
// set as one fused batch on every executor — one executor serving all 63 —
// and checks each slot against the reference: every engine's RunOps must
// agree with its per-op path, also on batches whose passes are partly absent.
func TestFusedDifferentialAcrossExecutors(t *testing.T) {
	spec := corpora[0]
	files, d := spec.GenerateWithDict()
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	all := analytics.Ops()
	refs := make([]any, len(all))
	for i, op := range all {
		refs[i] = refFor(t, op, files, d)
	}
	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			x := ex.build(t, files, d, g)
			for mask := 1; mask < 1<<len(all); mask++ {
				var ops []analytics.Op
				var want []any
				for i, op := range all {
					if mask&(1<<i) != 0 {
						ops, want = append(ops, op), append(want, refs[i])
					}
				}
				results, err := x.RunOps(ops)
				if err != nil {
					t.Fatalf("batch %06b: RunOps: %v", mask, err)
				}
				for i, op := range ops {
					if !reflect.DeepEqual(analytics.MapResult(op, results[i]), want[i]) {
						t.Errorf("batch %06b: %v: fused result differs from reference", mask, op.Task())
					}
				}
			}
		})
	}
}
