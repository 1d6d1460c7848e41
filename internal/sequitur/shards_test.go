package sequitur

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/datagen"
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
// builds, the unified form is structurally valid, and it is no larger than
// the independent builds.
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
		if len(sb.Shards) != sb.Set.NumShards() {
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

// unifyGoldenCorpora are the reduced A- and D-shaped corpora
// TestUnifyShardsGolden pins: dataset A's single long document cut into six
// shorter ones, so there is something to shard, and a quarter of dataset D.
var unifyGoldenCorpora = []struct {
	name string
	spec datagen.Spec
}{
	{"A", func() datagen.Spec { s := datagen.DatasetA; s.Files, s.TokensPer = 6, 5_000; return s }()},
	{"D", datagen.DatasetD.Scaled(0.25)},
}

// TestUnifyShardsGolden pins the unified form byte for byte: the shared
// table's checksum, the stored symbol count and the shared rule count of
// sharded builds over generated corpora.  Unification is deterministic and
// every archive serializes its result, so any change here changes archives:
// a speed-up of the unifier must leave every figure as it is.
func TestUnifyShardsGolden(t *testing.T) {
	golden := map[string]struct {
		checksum uint32
		symbols  int64
		shared   int
	}{
		"A/k=2/seed=1": {0xb80c4861, 5534, 1096},
		"A/k=2/seed=2": {0x7a0611cd, 5564, 1124},
		"A/k=2/seed=3": {0x43c3b93e, 5949, 1217},
		"A/k=4/seed=1": {0xaf762c41, 6330, 1301},
		"A/k=4/seed=2": {0xfd9eecd1, 6450, 1337},
		"A/k=4/seed=3": {0x4d0e2981, 6611, 1352},
		"D/k=2/seed=1": {0x5c55961e, 11640, 1979},
		"D/k=2/seed=2": {0x9835e2bb, 11130, 1874},
		"D/k=2/seed=3": {0xabdaa53d, 11926, 2025},
		"D/k=4/seed=1": {0x991d1a46, 12341, 2159},
		"D/k=4/seed=2": {0x0ff98971, 11736, 2018},
		"D/k=4/seed=3": {0x1d71738f, 12576, 2184},
	}
	for _, c := range unifyGoldenCorpora {
		for _, k := range []int{2, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				spec := c.spec
				spec.Seed ^= seed
				files := spec.Generate()
				sb, err := InferShardsShared(files, uint32(spec.Vocab), k)
				if err != nil {
					t.Fatalf("%s k=%d seed %d: %v", c.name, k, seed, err)
				}
				key := fmt.Sprintf("%s/k=%d/seed=%d", c.name, k, seed)
				want := golden[key]
				if sum, n, rules := sb.Set.Checksum(), sb.Set.SymbolCount(), len(sb.Set.Shared); sum != want.checksum || n != want.symbols || rules != want.shared {
					t.Errorf("%s: checksum %#08x, %d symbols, %d shared rules; want %#08x, %d, %d",
						key, sum, n, rules, want.checksum, want.symbols, want.shared)
				}
			}
		}
	}
}

// BenchmarkUnifyShards is the unification slice of `make microbench`:
// UnifyShards over the `cold-miss` shape's two shard grammars (dataset D cut
// to 32 documents, K=2), inferred and fingerprinted once outside the timer.
// It is the serial step between the parallel shard builds and the archive.
func BenchmarkUnifyShards(b *testing.B) {
	spec := datagen.DatasetD
	spec.Files = 32
	files := spec.Generate()
	weights := make([]int64, len(files))
	for i, f := range files {
		weights[i] = int64(len(f)) + 1
	}
	var (
		shards []*cfg.Grammar
		fps    [][]cfg.Fingerprint
	)
	for _, span := range PartitionFiles(weights, 2) {
		g, err := Infer(files[span[0]:span[1]], uint32(spec.Vocab))
		if err != nil {
			b.Fatal(err)
		}
		f, err := cfg.FingerprintRules(g)
		if err != nil {
			b.Fatal(err)
		}
		shards, fps = append(shards, g), append(fps, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.UnifyShards(shards, fps); err != nil {
			b.Fatal(err)
		}
	}
}
