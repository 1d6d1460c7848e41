package sequitur

import (
	"fmt"
	"sync"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

// Sharded inference: the file separators that already isolate documents in
// a single grammar (rules never span file boundaries) make whole files the
// natural shard boundary, so a corpus can be split into K contiguous file
// spans and compressed into K grammars concurrently, then unified against
// one shared rule table.

// PartitionFiles splits n files into at most k contiguous spans, balanced
// by weight (each span closes once the running total crosses its share of
// the remaining weight).  Every span is non-empty; fewer than k spans are
// returned when n < k (including k <= 0, which degenerates to one span).
// When the remaining weight is zero — all-zero weights, or one heavy file
// followed by empty ones — the remaining files are split evenly by count,
// so zero-weight files never collapse into one lopsided tail span.  Spans
// are [start, end) file-index pairs.
func PartitionFiles(weights []int64, k int) [][2]int {
	n := len(weights)
	if k > n {
		k = n
	}
	if k <= 1 {
		if n == 0 {
			return nil
		}
		return [][2]int{{0, n}}
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	spans := make([][2]int, 0, k)
	start, acc := 0, int64(0)
	for i, w := range weights {
		acc += w
		remainingShards := k - len(spans)
		if remainingShards <= 1 {
			break
		}
		// Close the span when it reaches an equal share of what is left,
		// but never so late that the remaining files cannot fill the
		// remaining shards one file each.
		mustClose := n-i-1 <= remainingShards-1
		var full bool
		if total > 0 {
			full = acc >= total/int64(remainingShards)
		} else {
			// No weight left to balance: fall back to an even split of the
			// remaining files by count (ceiling division keeps every later
			// span fillable).
			remFiles := n - start
			full = i+1-start >= (remFiles+remainingShards-1)/remainingShards
		}
		if mustClose || full {
			spans = append(spans, [2]int{start, i + 1})
			start = i + 1
			total -= acc
			acc = 0
		}
	}
	if start < n {
		spans = append(spans, [2]int{start, n})
	}
	return spans
}

// ShardBuild is the result of InferShardsShared: the unified shard set, the
// per-shard grammars materialized from it (what engines build from), and
// the raw size the shard-scaling experiment reports beside it.
type ShardBuild struct {
	// Set is the unified form: one shared rule table plus per-shard roots.
	Set *cfg.SharedSet
	// Shards are the per-shard grammars rewritten against the shared
	// table: each is the reachable closure of its root, so a shard engine
	// remains a self-contained persistence domain.
	Shards []*cfg.Grammar
	// RawSymbols is the total grammar size before unification — what the
	// independent builds produced, growing with K.
	RawSymbols int64
}

// InferShardsShared partitions the corpus into k contiguous file spans
// balanced by token count, infers and fingerprints one grammar per span
// concurrently, and recovers the cross-shard redundancy: the post-build
// unification pass rewrites the shard grammars against a single shared rule
// table, in which identical sequences discovered by different shards meet.  Shard s
// of the result covers the s-th span of files, and its materialized grammar
// expands to exactly those files, so analytics over the shards are
// bit-identical to analytics over the whole corpus — only the structure is
// shared.  Fewer than k shards are returned when the corpus has fewer than
// k files.
func InferShardsShared(tokens [][]uint32, numWords uint32, k int) (*ShardBuild, error) {
	if k < 1 {
		k = 1
	}
	weights := make([]int64, len(tokens))
	for i, f := range tokens {
		weights[i] = int64(len(f)) + 1 // +1 keeps empty files from collapsing spans
	}
	spans := PartitionFiles(weights, k)
	if len(spans) == 0 {
		spans = [][2]int{{0, 0}} // empty corpus: one empty shard
	}
	shards := make([]*cfg.Grammar, len(spans))
	fps := make([][]cfg.Fingerprint, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for s, span := range spans {
		wg.Add(1)
		go func(s int, span [2]int) {
			defer wg.Done()
			g, err := Infer(tokens[span[0]:span[1]], numWords)
			if err != nil {
				errs[s] = err
				return
			}
			f, err := cfg.FingerprintRules(g)
			if err != nil {
				errs[s] = err
				return
			}
			shards[s], fps[s] = g, f
		}(s, span)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	var raw int64
	for _, g := range shards {
		for _, body := range g.Rules {
			raw += int64(len(body))
		}
	}
	set, err := cfg.UnifyShards(shards, fps)
	if err != nil {
		return nil, fmt.Errorf("sequitur: unify shards: %w", err)
	}
	mats, err := set.Materialize()
	if err != nil {
		return nil, fmt.Errorf("sequitur: materialize shards: %w", err)
	}
	return &ShardBuild{Set: set, Shards: mats, RawSymbols: raw}, nil
}
