package tadoc

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// corpus builds a small redundant corpus, its dictionary, and grammar.
func corpus(t testing.TB, seed int64, nFiles, tokens, vocab int) ([][]uint32, *dict.Dictionary, *cfg.Grammar) {
	t.Helper()
	spec := datagen.Spec{
		Name: "t", Seed: seed, Files: nFiles, TokensPer: tokens, Vocab: vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return files, d, g
}

func newEngine(t testing.TB, g *cfg.Grammar, d *dict.Dictionary, s Strategy) *Engine {
	t.Helper()
	e, err := New(g, d, s)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// Full per-task reference coverage for both strategies lives in the
// cross-executor differential test (internal/analytics/differential_test.go).

func TestAutoStrategySelection(t *testing.T) {
	_, d, gFew := corpus(t, 1, 2, 100, 20)
	e := newEngine(t, gFew, d, Auto)
	if e.effectiveStrategy() != TopDown {
		t.Errorf("few files: auto = %v", e.effectiveStrategy())
	}
	_, d2, gMany := corpus(t, 2, 600, 30, 20)
	e2 := newEngine(t, gMany, d2, Auto)
	if e2.effectiveStrategy() != BottomUp {
		t.Errorf("many files: auto = %v", e2.effectiveStrategy())
	}
}

func TestNewRejectsInvalidGrammar(t *testing.T) {
	bad := &cfg.Grammar{Rules: [][]cfg.Symbol{{cfg.Rule(9)}}, NumWords: 1}
	if _, err := New(bad, dict.New(), Auto); err == nil {
		t.Error("expected validation error")
	}
}

func TestDRAMBytesGrowsWithCaching(t *testing.T) {
	_, d, g := corpus(t, 3, 4, 300, 40)
	e := newEngine(t, g, d, BottomUp)
	base := e.DRAMBytes()
	if base <= 0 {
		t.Fatalf("base DRAM estimate %d", base)
	}
	analytics.WordCount(e)
	analytics.TermVectors(e, 5)
	analytics.SequenceCount(e)
	grown := e.DRAMBytes()
	if grown <= base {
		t.Errorf("DRAM estimate did not grow: %d -> %d", base, grown)
	}
}

func TestEmptyCorpus(t *testing.T) {
	g, err := sequitur.Infer(nil, 1)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newEngine(t, g, dict.New(), Auto)
	wc, err := analytics.WordCount(e)
	if err != nil || len(wc) != 0 {
		t.Errorf("WordCount on empty = %v, %v", wc, err)
	}
	sc, err := analytics.SequenceCount(e)
	if err != nil || len(sc) != 0 {
		t.Errorf("SequenceCount on empty = %v, %v", sc, err)
	}
}

func TestSingleWordFiles(t *testing.T) {
	files := [][]uint32{{0}, {0}, {1}}
	d := dict.New()
	d.Intern("a")
	d.Intern("b")
	g, err := sequitur.Infer(files, 2)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	e := newEngine(t, g, d, TopDown)
	inv, err := analytics.InvertedIndex(e)
	if err != nil {
		t.Fatalf("InvertedIndex: %v", err)
	}
	want := map[uint32][]uint32{0: {0, 1}, 1: {2}}
	if !reflect.DeepEqual(inv, want) {
		t.Errorf("InvertedIndex = %v", inv)
	}
	// Files shorter than SeqLen yield no sequences.
	sc, _ := analytics.SequenceCount(e)
	if len(sc) != 0 {
		t.Errorf("SequenceCount = %v", sc)
	}
}

func TestSortU32(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 10, 24, 25, 100, 1000} {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(r.Intn(50))
		}
		sortU32(s)
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}
