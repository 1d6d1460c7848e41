package analytics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

func TestTaskStrings(t *testing.T) {
	want := []string{"word count", "sort", "term vector", "inverted index",
		"sequence count", "ranked inverted index"}
	for i, task := range Tasks {
		if task.String() != want[i] {
			t.Errorf("Task %d = %q, want %q", i, task, want[i])
		}
	}
	if Task(99).String() != "Task(99)" {
		t.Errorf("unknown task string")
	}
}

func TestRefWordCount(t *testing.T) {
	files := [][]uint32{{1, 2, 1}, {2, 3}}
	got := RefWordCount(files)
	want := map[uint32]uint64{1: 2, 2: 2, 3: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RefWordCount = %v", got)
	}
}

func TestRefSortAlphabetical(t *testing.T) {
	d := dict.New()
	banana := d.Intern("banana") // id 0
	apple := d.Intern("apple")   // id 1
	cherry := d.Intern("cherry") // id 2
	files := [][]uint32{{banana, apple, cherry, apple}}
	got := RefSort(files, d)
	want := []WordFreq{{apple, 2}, {banana, 1}, {cherry, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RefSort = %v, want %v", got, want)
	}
}

func TestRefTermVector(t *testing.T) {
	files := [][]uint32{{5, 5, 5, 7, 7, 9}, {1}}
	got := RefTermVector(files, 2)
	want := [][]WordFreq{{{5, 3}, {7, 2}}, {{1, 1}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RefTermVector = %v, want %v", got, want)
	}
	// Tie break by ascending word ID.
	got = RefTermVector([][]uint32{{9, 3, 3, 9}}, 0)
	want = [][]WordFreq{{{3, 2}, {9, 2}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie break = %v, want %v", got, want)
	}
}

func TestRefInvertedIndex(t *testing.T) {
	files := [][]uint32{{1, 2}, {2, 3}, {1}}
	got := RefInvertedIndex(files)
	want := map[uint32][]uint32{1: {0, 2}, 2: {0, 1}, 3: {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RefInvertedIndex = %v", got)
	}
}

func TestRefSequenceCount(t *testing.T) {
	// "a b a b a" has trigrams aba, bab, aba.
	files := [][]uint32{{0, 1, 0, 1, 0}, {5, 6}} // second file too short
	got := RefSequenceCount(files)
	want := map[Seq]uint64{{0, 1, 0}: 2, {1, 0, 1}: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RefSequenceCount = %v", got)
	}
}

func TestRefRankedInvertedIndex(t *testing.T) {
	files := [][]uint32{
		{0, 1, 2, 0, 1, 2, 0, 1, 2}, // (0,1,2) x3
		{0, 1, 2},                   // (0,1,2) x1
	}
	got := RefRankedInvertedIndex(files)
	postings := got[Seq{0, 1, 2}]
	if len(postings) != 2 || postings[0].Doc != 0 || postings[0].Freq != 3 ||
		postings[1].Doc != 1 || postings[1].Freq != 1 {
		t.Errorf("postings = %v", postings)
	}
}

func TestRankPostingsTieBreak(t *testing.T) {
	got := RankPostings(map[uint32]uint64{3: 5, 1: 5, 2: 9})
	want := []DocFreq{{2, 9}, {1, 5}, {3, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RankPostings = %v", got)
	}
}

// randomCorpus builds a redundant random corpus and its grammar.
func randomCorpus(t testing.TB, seed int64, nFiles, fileLen, vocab int) ([][]uint32, *cfg.Grammar) {
	if t != nil {
		t.Helper()
	}
	r := rand.New(rand.NewSource(seed))
	phrases := make([][]uint32, 8)
	for i := range phrases {
		p := make([]uint32, 2+r.Intn(6))
		for j := range p {
			p[j] = uint32(r.Intn(vocab))
		}
		phrases[i] = p
	}
	files := make([][]uint32, nFiles)
	for i := range files {
		var f []uint32
		for len(f) < fileLen {
			if r.Intn(3) == 0 {
				f = append(f, uint32(r.Intn(vocab)))
			} else {
				f = append(f, phrases[r.Intn(len(phrases))]...)
			}
		}
		files[i] = f[:fileLen]
	}
	g, err := sequitur.Infer(files, uint32(vocab))
	if err != nil {
		if t != nil {
			t.Fatalf("Infer: %v", err)
		}
		panic(err)
	}
	return files, g
}

func TestRuleWeightsReproduceWordCount(t *testing.T) {
	files, g := randomCorpus(t, 1, 4, 300, 20)
	weights, err := RuleWeights(g)
	if err != nil {
		t.Fatalf("RuleWeights: %v", err)
	}
	// Global counts = sum over rules of weight x local word frequency.
	got := make(map[uint32]uint64)
	for ri, body := range g.Rules {
		for _, s := range body {
			if s.IsWord() {
				got[s.WordID()] += weights[ri]
			}
		}
	}
	want := RefWordCount(files)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("weighted word count mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestRuleWordListsRootMatchesWordCount(t *testing.T) {
	files, g := randomCorpus(t, 2, 3, 400, 15)
	lists, err := RuleWordLists(g)
	if err != nil {
		t.Fatalf("RuleWordLists: %v", err)
	}
	want := RefWordCount(files)
	if !reflect.DeepEqual(lists[0], want) {
		t.Errorf("root word list mismatch")
	}
}

func TestUpperBoundsHold(t *testing.T) {
	_, g := randomCorpus(t, 3, 5, 300, 12)
	bounds, err := UpperBounds(g)
	if err != nil {
		t.Fatalf("UpperBounds: %v", err)
	}
	lists, _ := RuleWordLists(g)
	for ri := range g.Rules {
		if int64(len(lists[ri])) > bounds[ri] {
			t.Errorf("R%d: word list %d exceeds bound %d", ri, len(lists[ri]), bounds[ri])
		}
	}
	// The paper's example (Fig 1e): bounds are exact sums.
	paper := &cfg.Grammar{
		Rules: [][]cfg.Symbol{
			{cfg.Rule(1), cfg.Word(4), cfg.Rule(1), cfg.Sep(0), cfg.Word(5), cfg.Rule(2), cfg.Sep(1)},
			{cfg.Rule(2), cfg.Word(2), cfg.Word(3)},
			{cfg.Word(0), cfg.Word(1)},
		},
		NumWords: 6, NumFiles: 2,
	}
	b, err := UpperBounds(paper)
	if err != nil {
		t.Fatalf("UpperBounds(paper): %v", err)
	}
	// R2 = 2; R1 = bound(R2)+2 = 4; R0 = 2*bound(R1)+bound(R2)+2 = 12.
	// (The paper's walk-through counts R1 once and omits multiplicity:
	// its R0 example value is 6; with multiplicity the sound bound is 12.)
	if b[2] != 2 || b[1] != 4 {
		t.Errorf("paper bounds = %v", b)
	}
	if b[0] < 6 {
		t.Errorf("R0 bound %d not an upper bound", b[0])
	}
}

func TestFileSegments(t *testing.T) {
	_, g := randomCorpus(t, 4, 3, 100, 10)
	segs := FileSegments(g)
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i, seg := range segs {
		for _, s := range seg {
			if s.IsSep() {
				t.Errorf("segment %d contains separator", i)
			}
		}
	}
}

func TestComputeSeqInfoGlobalCounts(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		files, g := randomCorpus(t, seed, 3, 200, 8)
		infos, err := ComputeSeqInfo(g)
		if err != nil {
			t.Fatalf("ComputeSeqInfo: %v", err)
		}
		want := RefSequenceCount(files)
		if !seqMapsEqual(infos[0].Counts, want) {
			t.Errorf("seed %d: root counts mismatch: got %d entries, want %d",
				seed, len(infos[0].Counts), len(want))
		}
	}
}

func TestSegmentSeqCountsPerFile(t *testing.T) {
	files, g := randomCorpus(t, 7, 4, 150, 6)
	infos, err := ComputeSeqInfo(g)
	if err != nil {
		t.Fatalf("ComputeSeqInfo: %v", err)
	}
	segs := FileSegments(g)
	for i, seg := range segs {
		got := SegmentSeqCounts(seg, infos)
		want := RefSequenceCount([][]uint32{files[i]})
		if !seqMapsEqual(got, want) {
			t.Errorf("file %d: per-file counts mismatch", i)
		}
	}
}

func TestSeqInfoHeadTail(t *testing.T) {
	files, g := randomCorpus(t, 9, 2, 120, 5)
	infos, err := ComputeSeqInfo(g)
	if err != nil {
		t.Fatalf("ComputeSeqInfo: %v", err)
	}
	for ri := 1; ri < len(g.Rules); ri++ {
		exp := []uint32{}
		for _, s := range g.Expand(uint32(ri)) {
			if s.IsWord() {
				exp = append(exp, s.WordID())
			}
		}
		info := infos[ri]
		if info.Len != int64(len(exp)) {
			t.Fatalf("R%d: Len %d, expansion %d", ri, info.Len, len(exp))
		}
		keep := SeqLen - 1
		if len(exp) < keep {
			keep = len(exp)
		}
		for j := 0; j < keep; j++ {
			if info.Head()[j] != exp[j] {
				t.Errorf("R%d head[%d] = %d, want %d", ri, j, info.Head()[j], exp[j])
			}
			if info.Tail()[keep-1-j] != exp[len(exp)-1-j] {
				t.Errorf("R%d tail mismatch", ri)
			}
		}
	}
	_ = files
}

func seqMapsEqual(a, b map[Seq]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestQuickSeqCountsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nFiles := 1 + r.Intn(4)
		files := make([][]uint32, nFiles)
		for i := range files {
			n := r.Intn(60)
			ids := make([]uint32, n)
			for j := range ids {
				ids[j] = uint32(r.Intn(4))
			}
			files[i] = ids
		}
		g, err := sequitur.Infer(files, 4)
		if err != nil {
			return false
		}
		infos, err := ComputeSeqInfo(g)
		if err != nil {
			return false
		}
		if !seqMapsEqual(infos[0].Counts, RefSequenceCount(files)) {
			return false
		}
		segs := FileSegments(g)
		for i := range files {
			if !seqMapsEqual(SegmentSeqCounts(segs[i], infos), RefSequenceCount([][]uint32{files[i]})) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickWordListsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		files, g := randomCorpus(nil, seed, 3, 80, 6)
		lists, err := RuleWordLists(g)
		if err != nil {
			return false
		}
		segs := FileSegments(g)
		for i := range files {
			got := make(map[uint32]uint64)
			for _, s := range segs[i] {
				switch {
				case s.IsWord():
					got[s.WordID()]++
				case s.IsRule():
					for w, c := range lists[s.RuleIndex()] {
						got[w] += c
					}
				}
			}
			want := RefWordCount([][]uint32{files[i]})
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// bodySpanningCounts counts the n-grams that span at least two symbols of
// the given body: its local windows.
func bodySpanningCounts(body []cfg.Symbol, infos []*SeqInfo) map[Seq]uint64 {
	out := make(map[Seq]uint64)
	SpanningWindows(body, infos, func(_ int, q Seq) { out[q]++ })
	return out
}

func TestBodySpanningDecomposition(t *testing.T) {
	// Property behind weighted sequence counting: global counts equal the
	// root's local windows plus each rule's local windows x its weight.
	for seed := int64(0); seed < 6; seed++ {
		files, g := randomCorpus(t, 100+seed, 3, 150, 6)
		infos, err := ComputeSeqInfo(g)
		if err != nil {
			t.Fatalf("ComputeSeqInfo: %v", err)
		}
		weights, err := RuleWeights(g)
		if err != nil {
			t.Fatalf("RuleWeights: %v", err)
		}
		// The edge-only summaries local-window counting runs on are the
		// full summaries without their Counts.
		order, _ := g.TopoOrder()
		for ri, e := range SummarizeRules(g, order, false) {
			if e.Counts != nil || e.Len != infos[ri].Len || e.Split != infos[ri].Split || !reflect.DeepEqual(e.Edge, infos[ri].Edge) {
				t.Fatalf("seed %d R%d: edge summary %+v, full %+v", seed, ri, e, infos[ri])
			}
		}
		got := make(map[Seq]uint64)
		for ri := range g.Rules {
			for q, c := range bodySpanningCounts(g.Rules[ri], infos) {
				got[q] += c * weights[ri]
			}
		}
		if !seqMapsEqual(got, RefSequenceCount(files)) {
			t.Errorf("seed %d: weighted decomposition mismatch", seed)
		}
	}
}

func TestPerFileSpanningDecomposition(t *testing.T) {
	// Per-file variant: file counts equal the segment's local windows plus
	// each rule's local windows x its per-file weight.
	files, g := randomCorpus(t, 200, 4, 120, 5)
	infos, err := ComputeSeqInfo(g)
	if err != nil {
		t.Fatalf("ComputeSeqInfo: %v", err)
	}
	order, _ := g.TopoOrder()
	segs := FileSegments(g)
	for fi, seg := range segs {
		weight := make([]uint64, len(g.Rules))
		for _, s := range seg {
			if s.IsRule() {
				weight[s.RuleIndex()]++
			}
		}
		for _, ri := range order {
			if weight[ri] == 0 {
				continue
			}
			for _, s := range g.Rules[ri] {
				if s.IsRule() {
					weight[s.RuleIndex()] += weight[ri]
				}
			}
		}
		got := make(map[Seq]uint64)
		for q, c := range bodySpanningCounts(seg, infos) {
			got[q] += c
		}
		for ri := range g.Rules {
			if weight[ri] == 0 {
				continue
			}
			for q, c := range bodySpanningCounts(g.Rules[ri], infos) {
				got[q] += c * weight[ri]
			}
		}
		if !seqMapsEqual(got, RefSequenceCount([][]uint32{files[fi]})) {
			t.Errorf("file %d: per-file weighted decomposition mismatch", fi)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	files := [][]uint32{{0, 1, 0, 2, 1, 0}}
	g, err := sequitur.Infer(files, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	e := stubEngine{}
	for _, task := range Tasks {
		if err := Run(e, task); err != nil {
			t.Errorf("Run(%v): %v", task, err)
		}
	}
	if err := Run(e, Task(99)); err == nil {
		t.Error("unknown task must error")
	}
}

// stubEngine is an Executor with empty results.
type stubEngine struct{}

func (stubEngine) RunOps(ops []Op) ([]any, error) { return make([]any, len(ops)), nil }

// TestCompareWireKeysMatchesJoinedStrings holds the in-place key comparison
// to its definition — bytewise order of the materialized joined keys — over
// every pair of sequences of a vocabulary chosen to break shortcuts: words
// that are prefixes of one another, that continue below, at and above the
// separator, and that hold it (so distinct sequences share a key).
func TestCompareWireKeysMatchesJoinedStrings(t *testing.T) {
	words := []string{"a", "ab", "a b", "b", "a\x1fb", "a!", "", " ", "b c"}
	var seqs []Seq
	for i := range words {
		for j := range words {
			for k := range words {
				seqs = append(seqs, Seq{uint32(i), uint32(j), uint32(k)})
			}
		}
	}
	sign := func(c int) int { return max(-1, min(1, c)) }
	shared := 0
	for _, a := range seqs {
		ka := joinSeq(words, a)
		for _, b := range seqs {
			want := strings.Compare(ka, joinSeq(words, b))
			if got := sign(CompareWireKeys(words, a, b)); got != want {
				t.Fatalf("CompareWireKeys(%q, %q) = %d, want %d", ka, joinSeq(words, b), got, want)
			}
			if want == 0 && a != b {
				shared++
				if compareWire(words, a, b) != CompareSeq(a, b) {
					t.Fatalf("wire order of %v and %v, which share key %q, is not CompareSeq's", a, b, ka)
				}
			}
		}
	}
	if shared == 0 {
		t.Error("the vocabulary produced no two sequences sharing a key")
	}
	order := RankSequences(seqs, words)
	for r := 1; r < len(order.Order); r++ {
		a, b := seqs[order.Order[r-1]], seqs[order.Order[r]]
		if strings.Compare(joinSeq(words, a), joinSeq(words, b)) > 0 || order.Rank[order.Order[r]] != uint32(r) {
			t.Fatalf("RankSequences: position %d out of order, or rank is not the inverse", r)
		}
	}
}
