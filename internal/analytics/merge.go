// Shard-result merging: the scatter half of a sharded engine runs every op
// independently per shard (files never straddle shards, so each shard's
// traversal is a complete run over its slice of the corpus), and the gather
// half folds the per-shard results back into one corpus-wide result here.
// Merge semantics follow the op's declaration: global-scope ops combine
// counters key-wise; per-file ops concatenate, offsetting document indices
// by the shard's base.  Every canonical ordering (alphabetical sort, posting
// ranking) is re-established after the merge, so merged results are
// bit-identical to an unsharded run over the same corpus.
//
// Unit results are never mutated: callers keep them (failover retries,
// replica lanes).  A posting list only one unit contributed, already in
// global document numbering, is aliased read-only into the merged result
// rather than copied; it is clipped first, so a later contribution appends
// into fresh memory.  Only lists that need it are re-ordered at Finish — the
// ones a second unit extended or a docmap unit touched (a docmap interleaves
// documents) — since a unit's own lists arrive in canonical order and a
// uniform document offset preserves it.
package analytics

import (
	"fmt"
	"slices"

	"github.com/text-analytics/ntadoc/internal/metrics"
)

// MergingFold is the merge capability of a fold: in addition to consuming
// traversal counters, it can fold in the finished result of one shard's run
// of the same op.  docBase is the global index of the shard's first
// document; global-scope folds ignore it.  MergeShard calls must arrive in
// ascending shard order and must not be mixed with Global/File deliveries;
// Finish then produces the corpus-wide result.
//
// All registered ops implement it, which is what lets a sharded coordinator
// run any op without task-specific merge code.
type MergingFold interface {
	Fold
	MergeShard(result any, docBase uint32) error
}

// MergeShardResults folds per-shard results of op back into one corpus-wide
// result.  results[i] is shard i's finished result; docBases[i] is the
// global index of shard i's first document.  env must describe the whole
// corpus (NumFiles is the corpus-wide document count).
func MergeShardResults(op Op, env Env, results []any, docBases []uint32) (any, error) {
	if len(results) != len(docBases) {
		return nil, fmt.Errorf("analytics: merge %s: %d results, %d doc bases",
			op.Name(), len(results), len(docBases))
	}
	fold := op.NewFold(env)
	mf, ok := fold.(MergingFold)
	if !ok {
		return nil, fmt.Errorf("analytics: op %s fold is not mergeable", op.Name())
	}
	for i, res := range results {
		if err := mf.MergeShard(res, docBases[i]); err != nil {
			return nil, fmt.Errorf("analytics: merge %s shard %d: %w", op.Name(), i, err)
		}
	}
	return mf.Finish()
}

// presized returns acc ready for a unit of n keys: while acc is still empty
// it is replaced by a map with room for them, so the first unit — typically
// most of the merged key set — is inserted without rehash growth.
func presized[K comparable, V any](acc map[K]V, n int) map[K]V {
	if len(acc) == 0 {
		return make(map[K]V, n)
	}
	return acc
}

// mergeTypeError reports a shard result whose concrete type does not match
// the op's canonical result type — always a coordinator bug.
func mergeTypeError(name string, result any) error {
	return fmt.Errorf("analytics: %s shard result has type %T", name, result)
}

// MergeUnit is one independently-executed slice of the corpus to fold back:
// a shard's base engine, or a delta engine holding appended documents.
// When DocMap is nil the unit's documents are the contiguous global range
// starting at DocBase; otherwise unit-local document i is global document
// DocMap[i] — the shape online ingestion produces, where a shard's delta
// documents interleave globally with other shards' in append order.
type MergeUnit struct {
	Result  any
	DocBase uint32
	DocMap  []uint32
}

// MappedMergingFold is the docmap-aware merge capability.  All registered folds
// implement it: global-scope folds ignore the mapping, per-file folds place
// each unit-local document at its mapped global index.
type MappedMergingFold interface {
	MergingFold
	MergeMapped(result any, docMap []uint32) error
}

// MergeUnits folds unit results of op back into one corpus-wide result.
// Units must arrive in ascending order of their first global document; env
// must describe the whole corpus (NumFiles spans base and appended
// documents).
func MergeUnits(op Op, env Env, units []MergeUnit) (any, error) {
	fold := op.NewFold(env)
	mf, ok := fold.(MappedMergingFold)
	if !ok {
		return nil, fmt.Errorf("analytics: op %s fold is not mergeable", op.Name())
	}
	for i, u := range units {
		var err error
		if u.DocMap == nil {
			err = mf.MergeShard(u.Result, u.DocBase)
		} else {
			err = mf.MergeMapped(u.Result, u.DocMap)
		}
		if err != nil {
			return nil, fmt.Errorf("analytics: merge %s unit %d: %w", op.Name(), i, err)
		}
	}
	return mf.Finish()
}

// MergeShard sums per-word counters key-wise.
func (f *wordCountFold) MergeShard(result any, _ uint32) error {
	in, ok := result.(map[uint32]uint64)
	if !ok {
		return mergeTypeError("wordcount", result)
	}
	f.env.Charge(int64(len(in)), metrics.CostMergeEntry)
	f.out = presized(f.out, len(in))
	for w, n := range in {
		f.out[w] += n
	}
	return nil
}

// MergeShard sums the sorted shard vocabularies key-wise; Finish re-sorts
// the merged vocabulary alphabetically.
func (f *sortFold) MergeShard(result any, _ uint32) error {
	in, ok := result.([]WordFreq)
	if !ok {
		return mergeTypeError("sort", result)
	}
	f.acc = presized(f.acc, len(in))
	f.env.Charge(int64(len(in)), metrics.CostMergeEntry)
	for _, wf := range in {
		f.acc[wf.Word] += wf.Freq
	}
	return nil
}

// MergeShard places the shard's per-document vectors at their global
// document indices; vectors are already final (a document's term vector
// depends only on that document).
func (f *termVectorsFold) MergeShard(result any, docBase uint32) error {
	in, ok := result.([][]WordFreq)
	if !ok {
		return mergeTypeError("termvectors", result)
	}
	if int(docBase)+len(in) > len(f.out) {
		return fmt.Errorf("analytics: termvectors shard [%d, +%d) exceeds %d documents",
			docBase, len(in), len(f.out))
	}
	f.env.Charge(int64(len(in)), metrics.CostMergeEntry)
	for i, vec := range in {
		f.out[int(docBase)+i] = vec
	}
	return nil
}

// MergeShard concatenates posting lists with documents offset to their
// global indices; Finish re-sorts the lists more than one unit contributed
// to into canonical document order.
func (f *invertedIndexFold) MergeShard(result any, docBase uint32) error {
	return f.merge(result, docBase, nil)
}

// merge folds one unit in: under docMap when it is non-nil, else at docBase.
func (f *invertedIndexFold) merge(result any, docBase uint32, docMap []uint32) error {
	in, ok := result.(map[uint32][]uint32)
	if !ok {
		return mergeTypeError("invertedindex", result)
	}
	f.out = presized(f.out, len(in))
	var entries int64
	//ntalint:ignore determcheck keyed appends commute across keys, and resort is a worklist of per-key sorts whose order never reaches the result; the only order-dependence is which invariant-violation error surfaces first, and any violation fails the whole merge.
	for w, docs := range in {
		if len(docs) == 0 {
			continue
		}
		entries += int64(len(docs))
		acc, seen := f.out[w]
		if !seen && docMap == nil && docBase == 0 {
			f.out[w] = slices.Clip(docs)
			continue
		}
		if seen || docMap != nil {
			f.resort = append(f.resort, w)
		}
		acc = slices.Grow(acc, len(docs))
		for _, doc := range docs {
			if docMap == nil {
				acc = append(acc, doc+docBase)
				continue
			}
			if int(doc) >= len(docMap) {
				return fmt.Errorf("analytics: invertedindex unit document %d outside map of %d", doc, len(docMap))
			}
			acc = append(acc, docMap[doc])
		}
		f.out[w] = acc
	}
	f.env.Charge(entries, metrics.CostMergeEntry)
	return nil
}

// MergeShard sums per-sequence counters key-wise.
func (f *seqCountFold) MergeShard(result any, _ uint32) error {
	in, ok := result.(map[Seq]uint64)
	if !ok {
		return mergeTypeError("seqcount", result)
	}
	f.env.Charge(int64(len(in)), metrics.CostSeqOp)
	f.out = presized(f.out, len(in))
	for q, n := range in {
		f.out[q] += n
	}
	return nil
}

// MergeShard concatenates ranked postings with documents offset to their
// global indices; Finish re-ranks the lists more than one unit contributed to
// (descending frequency, ascending document), restoring the canonical order.
func (f *rankedIndexFold) MergeShard(result any, docBase uint32) error {
	return f.merge(result, docBase, nil)
}

// merge folds one unit in: under docMap when it is non-nil, else at docBase.
func (f *rankedIndexFold) merge(result any, docBase uint32, docMap []uint32) error {
	in, ok := result.(map[Seq][]DocFreq)
	if !ok {
		return mergeTypeError("rankedindex", result)
	}
	f.merged = presized(f.merged, len(in))
	var entries int64
	//ntalint:ignore determcheck keyed appends commute across keys, and rerank is a worklist of per-key sorts whose order never reaches the result; the only order-dependence is which invariant-violation error surfaces first, and any violation fails the whole merge.
	for q, postings := range in {
		if len(postings) == 0 {
			continue
		}
		entries += int64(len(postings))
		acc, seen := f.merged[q]
		if !seen && docMap == nil && docBase == 0 {
			f.merged[q] = slices.Clip(postings)
			continue
		}
		if seen || docMap != nil {
			f.rerank = append(f.rerank, q)
		}
		acc = slices.Grow(acc, len(postings))
		for _, p := range postings {
			if docMap == nil {
				acc = append(acc, DocFreq{Doc: p.Doc + docBase, Freq: p.Freq})
				continue
			}
			if int(p.Doc) >= len(docMap) {
				return fmt.Errorf("analytics: rankedindex unit document %d outside map of %d", p.Doc, len(docMap))
			}
			acc = append(acc, DocFreq{Doc: docMap[p.Doc], Freq: p.Freq})
		}
		f.merged[q] = acc
	}
	f.postings += entries
	f.env.Charge(entries, metrics.CostMergeEntry)
	return nil
}

// MergeMapped: global-scope folds ignore document indices entirely.
func (f *wordCountFold) MergeMapped(result any, _ []uint32) error {
	return f.MergeShard(result, 0)
}

// MergeMapped: global-scope folds ignore document indices entirely.
func (f *sortFold) MergeMapped(result any, _ []uint32) error {
	return f.MergeShard(result, 0)
}

// MergeMapped places each unit-local vector at its mapped global index.
func (f *termVectorsFold) MergeMapped(result any, docMap []uint32) error {
	in, ok := result.([][]WordFreq)
	if !ok {
		return mergeTypeError("termvectors", result)
	}
	if len(in) != len(docMap) {
		return fmt.Errorf("analytics: termvectors unit has %d documents, map %d", len(in), len(docMap))
	}
	f.env.Charge(int64(len(in)), metrics.CostMergeEntry)
	for i, vec := range in {
		if int(docMap[i]) >= len(f.out) {
			return fmt.Errorf("analytics: termvectors mapped document %d exceeds %d documents",
				docMap[i], len(f.out))
		}
		f.out[docMap[i]] = vec
	}
	return nil
}

// MergeMapped concatenates posting lists with documents remapped to their
// global indices; Finish re-sorts every list touched here into canonical
// document order (a docmap interleaves this unit's documents with others').
func (f *invertedIndexFold) MergeMapped(result any, docMap []uint32) error {
	return f.merge(result, 0, docMap)
}

// MergeMapped: global-scope folds ignore document indices entirely.
func (f *seqCountFold) MergeMapped(result any, _ []uint32) error {
	return f.MergeShard(result, 0)
}

// MergeMapped concatenates ranked postings with documents remapped to their
// global indices; Finish re-ranks every list touched here.
func (f *rankedIndexFold) MergeMapped(result any, docMap []uint32) error {
	return f.merge(result, 0, docMap)
}

// Every registered op's fold must be mergeable, with and without a docmap.
var (
	_ MappedMergingFold = (*wordCountFold)(nil)
	_ MappedMergingFold = (*sortFold)(nil)
	_ MappedMergingFold = (*termVectorsFold)(nil)
	_ MappedMergingFold = (*invertedIndexFold)(nil)
	_ MappedMergingFold = (*seqCountFold)(nil)
	_ MappedMergingFold = (*rankedIndexFold)(nil)
)
