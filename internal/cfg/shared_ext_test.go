package cfg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// fingerprintAll fingerprints every shard grammar.
func fingerprintAll(t *testing.T, shards []*cfg.Grammar) [][]cfg.Fingerprint {
	t.Helper()
	fps := make([][]cfg.Fingerprint, len(shards))
	for i, g := range shards {
		var err error
		if fps[i], err = cfg.FingerprintRules(g); err != nil {
			t.Fatalf("FingerprintRules: %v", err)
		}
	}
	return fps
}

// TestRecompressMatchesReference holds the digram-folding pass to the
// two-map reference, rule for rule: over the random shard sets
// TestReparseMatchesReference draws, and over datasets A–D built the way
// sequitur.InferShardsShared builds them at K = 2, 3 and 4 (A as six
// documents, so there is something to shard).
func TestRecompressMatchesReference(t *testing.T) {
	folded := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := cfg.RandomShards(rng, 2+rng.Intn(3))
		folded += cfg.CheckRecompress(t, shards, fingerprintAll(t, shards))
	}
	if folded == 0 {
		t.Fatal("no random shard set folded a digram: the sets exercise nothing")
	}
	a := datagen.DatasetA
	a.Files, a.TokensPer = 6, a.TokensPer/6
	for _, spec := range []datagen.Spec{a, datagen.DatasetB, datagen.DatasetC, datagen.DatasetD} {
		files := spec.Generate()
		weights := make([]int64, len(files))
		for i, f := range files {
			weights[i] = int64(len(f)) + 1
		}
		for _, k := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", spec.Name, k), func(t *testing.T) {
				var shards []*cfg.Grammar
				for _, span := range sequitur.PartitionFiles(weights, k) {
					g, err := sequitur.Infer(files[span[0]:span[1]], uint32(spec.Vocab))
					if err != nil {
						t.Fatal(err)
					}
					shards = append(shards, g)
				}
				if n := cfg.CheckRecompress(t, shards, fingerprintAll(t, shards)); n == 0 {
					t.Fatal("the pass folded nothing")
				}
			})
		}
	}
}
