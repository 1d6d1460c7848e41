package sequitur

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

func TestPartitionFiles(t *testing.T) {
	cases := []struct {
		weights []int64
		k       int
		want    [][2]int
	}{
		{nil, 4, nil},
		{[]int64{5}, 4, [][2]int{{0, 1}}},
		{[]int64{1, 1, 1, 1}, 2, [][2]int{{0, 2}, {2, 4}}},
		{[]int64{1, 1, 1, 1}, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{[]int64{100, 1, 1, 1}, 2, [][2]int{{0, 1}, {1, 4}}},
		{[]int64{1, 1, 1, 100}, 2, [][2]int{{0, 3}, {3, 4}}},
		// k greater than the file count: one span per file, never more.
		{[]int64{3, 3}, 7, [][2]int{{0, 1}, {1, 2}}},
		{[]int64{0}, 5, [][2]int{{0, 1}}},
		// k <= 0 degenerates to a single span.
		{[]int64{1, 2, 3}, 0, [][2]int{{0, 3}}},
		{[]int64{1, 2, 3}, -2, [][2]int{{0, 3}}},
		// All-zero weights: split evenly by count, not one lopsided tail.
		{[]int64{0, 0, 0, 0, 0, 0}, 4, [][2]int{{0, 2}, {2, 4}, {4, 5}, {5, 6}}},
		{[]int64{0, 0, 0, 0}, 2, [][2]int{{0, 2}, {2, 4}}},
		// Heavy head exhausts the weight; zero-weight tail still splits evenly.
		{[]int64{100, 0, 0, 0, 0}, 3, [][2]int{{0, 1}, {1, 3}, {3, 5}}},
		// Zero-weight files mixed between weighted ones stay balanced.
		{[]int64{5, 0, 5, 0}, 2, [][2]int{{0, 1}, {1, 4}}},
	}
	for _, c := range cases {
		got := PartitionFiles(c.weights, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("PartitionFiles(%v, %d) = %v, want %v", c.weights, c.k, got, c.want)
		}
	}
	// Spans always cover [0, n) contiguously with at most k non-empty spans.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(8)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(rng.Intn(500))
		}
		spans := PartitionFiles(weights, k)
		if len(spans) == 0 || len(spans) > k {
			t.Fatalf("n=%d k=%d: %d spans", n, k, len(spans))
		}
		next := 0
		for _, sp := range spans {
			if sp[0] != next || sp[1] <= sp[0] {
				t.Fatalf("n=%d k=%d: bad span %v in %v", n, k, sp, spans)
			}
			next = sp[1]
		}
		if next != n {
			t.Fatalf("n=%d k=%d: spans %v do not cover %d files", n, k, spans, n)
		}
	}
}

// TestSingleShardMaterializesInfer checks the K = 1 archive form: a
// grammar wrapped as a one-shard set materializes back to itself rule for
// rule, because sequitur numbers rules in the discovery order Materialize
// walks — so a K = 1 engine builds the grammar Infer returned.
func TestSingleShardMaterializesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		vocab := 3 + rng.Intn(40)
		files := make([][]uint32, 1+rng.Intn(8))
		for i := range files {
			files[i] = make([]uint32, rng.Intn(300))
			for j := range files[i] {
				files[i][j] = uint32(rng.Intn(vocab))
			}
		}
		g, err := Infer(files, uint32(vocab))
		if err != nil {
			t.Fatalf("trial %d: Infer: %v", trial, err)
		}
		set, err := cfg.SingleShard(g)
		if err != nil {
			t.Fatalf("trial %d: SingleShard: %v", trial, err)
		}
		mats, err := set.Materialize()
		if err != nil {
			t.Fatalf("trial %d: Materialize: %v", trial, err)
		}
		if len(mats) != 1 || !reflect.DeepEqual(mats[0].Rules, g.Rules) ||
			mats[0].NumWords != g.NumWords || mats[0].NumFiles != g.NumFiles {
			t.Fatalf("trial %d: materialized wrap differs from the Infer grammar", trial)
		}
	}
}

// TestInferShardsSharedRoundTrip checks the dedup path: the materialized
// shard grammars expand to exactly the same corpus as the independent
// builds, the unified form is structurally valid, and the dedup accounting
// is consistent.
func TestInferShardsSharedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const vocab = 25
	files := make([][]uint32, 9)
	for i := range files {
		n := 20 + rng.Intn(150)
		files[i] = make([]uint32, n)
		for j := range files[i] {
			files[i][j] = uint32(rng.Intn(vocab))
		}
	}
	files[4] = nil // zero-weight file inside the corpus
	for _, k := range []int{1, 2, 3, 4, 20} {
		sb, err := InferShardsShared(files, vocab, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := sb.Set.Validate(); err != nil {
			t.Fatalf("k=%d: unified set invalid: %v", k, err)
		}
		if len(sb.Shards) != sb.Set.NumShards() || len(sb.Novel) != len(sb.Shards) {
			t.Fatalf("k=%d: inconsistent shard counts", k)
		}
		var got [][]uint32
		for s, g := range sb.Shards {
			if err := g.Validate(); err != nil {
				t.Fatalf("k=%d shard %d invalid: %v", k, s, err)
			}
			got = append(got, g.ExpandFiles()...)
		}
		if !reflect.DeepEqual(got, files) {
			t.Fatalf("k=%d: dedup-path expansion differs from input", k)
		}
		// The merged view must expand identically too.
		merged, err := cfg.ConcatShards(sb.Shards)
		if err != nil {
			t.Fatalf("k=%d: concat: %v", k, err)
		}
		if !reflect.DeepEqual(merged.ExpandFiles(), files) {
			t.Fatalf("k=%d: merged expansion differs from input", k)
		}
		// Unification only removes redundancy; it never grows the form.
		if sb.Set.SymbolCount() > sb.RawSymbols {
			t.Fatalf("k=%d: unified %d symbols > raw %d", k, sb.Set.SymbolCount(), sb.RawSymbols)
		}
		novel := 0
		for _, n := range sb.Novel {
			novel += n
		}
		if novel != sb.Distinct {
			t.Fatalf("k=%d: novel counts sum to %d, dictionary holds %d", k, novel, sb.Distinct)
		}
	}
}

// TestInferShardsSharedDegenerate covers the k<=1 and tiny-corpus paths.
func TestInferShardsSharedDegenerate(t *testing.T) {
	sb, err := InferShardsShared(nil, 0, 3)
	if err != nil {
		t.Fatalf("empty corpus: %v", err)
	}
	if len(sb.Shards) != 1 || sb.Shards[0].NumFiles != 0 {
		t.Fatalf("empty corpus: got %d shards, %d files", len(sb.Shards), sb.Shards[0].NumFiles)
	}
	files := [][]uint32{{0, 1, 0, 1, 2}}
	sb, err = InferShardsShared(files, 3, 0)
	if err != nil {
		t.Fatalf("k=0: %v", err)
	}
	if len(sb.Shards) != 1 {
		t.Fatalf("k=0: got %d shards, want 1", len(sb.Shards))
	}
	if got := sb.Shards[0].ExpandFiles(); !reflect.DeepEqual(got, files) {
		t.Fatalf("k=0: expansion %v, want %v", got, files)
	}
}
