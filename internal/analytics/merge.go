// Shard-result merging: the scatter half of a sharded engine runs every op
// independently per shard (files never straddle shards, so each shard's
// traversal is a complete run over its slice of the corpus), and the gather
// half folds the per-shard results back into one corpus-wide result here.
// Merge semantics follow the op's declaration: global-scope ops combine
// counters key-wise; per-file ops concatenate, offsetting document indices
// by the shard's base.  Merged results are bit-identical to an unsharded run
// over the same corpus.
//
// A keyed op's unit results arrive as arrays in wire order (see KeyOrder),
// so their merge is a K-way merge over the units' keys, compared under
// env.Dict(), into arrays of its own: a merged result shares no memory with
// the unit results, which are only read — a caller may hold them past the
// merge.  A unit's own lists arrive in canonical order and a uniform
// document offset preserves it, so only the lists more than one unit
// contributed to, or a docmap unit did (a docmap interleaves documents), are
// re-ordered.
package analytics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/text-analytics/ntadoc/internal/metrics"
)

// MergeShardResults folds per-shard results of op back into one corpus-wide
// result.  results[i] is shard i's finished result; docBases[i] is the
// global index of shard i's first document.  env must describe the whole
// corpus (NumFiles is the corpus-wide document count).
func MergeShardResults(op Op, env Env, results []any, docBases []uint32) (any, error) {
	if len(results) != len(docBases) {
		return nil, fmt.Errorf("analytics: merge %s: %d results, %d doc bases",
			op.Name(), len(results), len(docBases))
	}
	units := make([]MergeUnit, len(results))
	for i, res := range results {
		units[i] = MergeUnit{Result: res, DocBase: docBases[i]}
	}
	return MergeUnits(op, env, units)
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

// merger is the merge capability of an op; all registered ops have it, so a
// sharded coordinator runs any op without task-specific merge code.
type merger interface {
	merge(env Env, units []MergeUnit) (any, error)
}

// MergeUnits folds unit results of op back into one corpus-wide result.
// Units must arrive in ascending order of their first global document, keyed
// results in wire order; env must describe the whole corpus (NumFiles spans
// base and appended documents, Dict holds every word of every unit).
func MergeUnits(op Op, env Env, units []MergeUnit) (any, error) {
	m, ok := op.(merger)
	if !ok {
		return nil, fmt.Errorf("analytics: op %s is not mergeable", op.Name())
	}
	return m.merge(env, units)
}

// unitResults asserts every unit's result to the op's result type; another
// type is always a coordinator bug.
func unitResults[R any](op Op, units []MergeUnit) ([]R, error) {
	out := make([]R, len(units))
	for i, u := range units {
		r, ok := u.Result.(R)
		if !ok {
			return nil, fmt.Errorf("analytics: merge %s unit %d: result has type %T", op.Name(), i, u.Result)
		}
		out[i] = r
	}
	return out, nil
}

// kway walks lists, each ascending under cmp, in merged order: for every
// distinct element visit gets the lists holding it, in list order, and every
// list's position.
func kway[E any](lists [][]E, cmp func(a, b *E) int, visit func(from, pos []int)) {
	pos, from := make([]int, len(lists)), make([]int, 0, len(lists))
	for {
		from = from[:0]
		for u, l := range lists {
			if pos[u] == len(l) {
				continue
			}
			c := -1
			if len(from) > 0 {
				c = cmp(&l[pos[u]], &lists[from[0]][pos[from[0]]])
			}
			if c < 0 {
				from = from[:0]
			}
			if c <= 0 {
				from = append(from, u)
			}
		}
		if len(from) == 0 {
			return
		}
		visit(from, pos)
		for _, u := range from {
			pos[u]++
		}
	}
}

// mergeCounts sums the units' counters key-wise, charging perEntry modeled
// nanos per entry read.
func mergeCounts[E any](op Op, env Env, units []MergeUnit, perEntry int64,
	cmp func(a, b *E) int, freq func(*E) *uint64) ([]E, error) {
	lists, err := unitResults[[]E](op, units)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	env.Charge(int64(total), perEntry)
	out := make([]E, 0, total)
	kway(lists, cmp, func(from, pos []int) {
		out = append(out, lists[from[0]][pos[from[0]]])
		sum := freq(&out[len(out)-1])
		for _, u := range from[1:] {
			*sum += *freq(&lists[u][pos[u]])
		}
	})
	return out, nil
}

// mergeWordCounts merges alphabetical word counters by the dictionary's rank
// table: integer compares, no word resolved.
func mergeWordCounts(op Op, env Env, units []MergeUnit) ([]WordFreq, error) {
	rank, _ := env.Dict().Alphabetical()
	return mergeCounts(op, env, units, metrics.CostMergeEntry,
		func(a, b *WordFreq) int { return cmp.Compare(rank[a.Word], rank[b.Word]) },
		func(e *WordFreq) *uint64 { return &e.Freq })
}

func (op WordCountOp) merge(env Env, units []MergeUnit) (any, error) {
	return mergeWordCounts(op, env, units)
}

// The merged vocabulary is charged the sort the shards' orders spare it.
func (op SortOp) merge(env Env, units []MergeUnit) (any, error) {
	out, err := mergeWordCounts(op, env, units)
	env.Charge(int64(len(out)), metrics.CostSortEntry)
	return out, err
}

func (op SequenceCountOp) merge(env Env, units []MergeUnit) (any, error) {
	words := env.Dict().Words()
	return mergeCounts(op, env, units, metrics.CostSeqOp,
		func(a, b *SeqFreq) int { return compareWire(words, a.Seq, b.Seq) },
		func(e *SeqFreq) *uint64 { return &e.Freq })
}

// merge places every unit's per-document vectors at their global document
// indices; vectors are already final (a document's term vector depends only
// on that document).
func (op TermVectorsOp) merge(env Env, units []MergeUnit) (any, error) {
	parts, err := unitResults[[][]WordFreq](op, units)
	if err != nil {
		return nil, err
	}
	out := make([][]WordFreq, env.NumFiles())
	for u, in := range parts {
		m := units[u].DocMap
		if m != nil && len(in) != len(m) {
			return nil, fmt.Errorf("analytics: merge termvectors unit %d: %d documents, map %d", u, len(in), len(m))
		}
		env.Charge(int64(len(in)), metrics.CostMergeEntry)
		for i, vec := range in {
			doc := int(units[u].DocBase) + i
			if m != nil {
				doc = int(m[i])
			}
			if doc >= len(out) {
				return nil, fmt.Errorf("analytics: merge termvectors unit %d: document %d exceeds %d documents", u, doc, len(out))
			}
			out[doc] = vec
		}
	}
	return out, nil
}

// mergePostings concatenates each key's lists in unit order with documents
// moved to their global indices (doc points at an item's document), and
// re-orders with canon the lists that need it.
func mergePostings[K comparable, T any](op Op, env Env, units []MergeUnit,
	cmp func(a, b *K) int, doc func(*T) *uint32, canon func([]T)) (*Postings[K, T], error) {
	parts, err := unitResults[*Postings[K, T]](op, units)
	if err != nil {
		return nil, err
	}
	keys, nkeys, nitems := make([][]K, len(parts)), 0, 0
	for u, p := range parts {
		keys[u] = p.Keys
		nkeys += len(p.Keys)
		nitems += len(p.Items)
	}
	if nitems > math.MaxUint32 {
		return nil, fmt.Errorf("analytics: merge %s: %d postings, more than a result can index", op.Name(), nitems)
	}
	env.Charge(int64(nitems), metrics.CostMergeEntry)
	out := &Postings[K, T]{Keys: make([]K, 0, nkeys), Ends: make([]uint32, 0, nkeys), Items: make([]T, 0, nitems)}
	kway(keys, cmp, func(from, pos []int) {
		lo, reorder := len(out.Items), len(from) > 1
		for _, u := range from {
			m := units[u].DocMap
			reorder = reorder || m != nil
			at := len(out.Items)
			out.Items = append(out.Items, parts[u].List(pos[u])...)
			for i := range out.Items[at:] {
				switch d := doc(&out.Items[at+i]); {
				case m == nil:
					*d += units[u].DocBase
				case int(*d) < len(m):
					*d = m[*d]
				default:
					err = fmt.Errorf("analytics: merge %s unit %d: document %d outside map of %d", op.Name(), u, *d, len(m))
				}
			}
		}
		if reorder {
			canon(out.Items[lo:])
		}
		out.Keys = append(out.Keys, keys[from[0]][pos[from[0]]])
		out.Ends = append(out.Ends, uint32(len(out.Items)))
	})
	return out, err
}

func (op InvertedIndexOp) merge(env Env, units []MergeUnit) (any, error) {
	rank, _ := env.Dict().Alphabetical()
	return mergePostings(op, env, units,
		func(a, b *uint32) int { return cmp.Compare(rank[*a], rank[*b]) },
		func(doc *uint32) *uint32 { return doc }, slices.Sort[[]uint32])
}

// The ranked lists' sort is charged on every merged posting, re-ranked or not.
func (op RankedInvertedIndexOp) merge(env Env, units []MergeUnit) (any, error) {
	words := env.Dict().Words()
	out, err := mergePostings(op, env, units,
		func(a, b *Seq) int { return compareWire(words, *a, *b) },
		func(p *DocFreq) *uint32 { return &p.Doc }, func(l []DocFreq) { RankPostingsSorted(l) })
	if err == nil {
		env.Charge(int64(len(out.Items)), metrics.CostSortEntry)
	}
	return out, err
}
