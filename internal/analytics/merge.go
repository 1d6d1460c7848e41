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
// merge.  A unit's own lists arrive in canonical order, and a uniform
// document offset or an increasing docmap preserves it, so a list more than
// one unit contributed to is a merge of ordered runs, never a sort.  The
// K-way merge can be cut into contiguous key ranges that merge concurrently
// into one result (MergeJob); the whole merge is the one-range case.
package analytics

import (
	"cmp"
	"fmt"
	"math"
	"sort"

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
	plan(env Env, units []MergeUnit, parts int) (*MergeJob, error)
}

// MergeUnits folds unit results of op back into one corpus-wide result.
// Each unit's DocMap must strictly increase and no global document may sit
// in two units; units may come in any order, keyed results in wire order.
// env must describe the whole corpus (NumFiles spans base and appended
// documents, Dict holds every word of every unit).  It is the one-part
// MergeJob, run on env's account.
func MergeUnits(op Op, env Env, units []MergeUnit) (any, error) {
	j, err := PlanMerge(op, env, units, 1)
	if err != nil {
		return nil, err
	}
	if err := j.Run(0, env); err != nil {
		return nil, err
	}
	return j.Finish(env), nil
}

// MergeJob is one op's merge cut into key-range parts.  Every unit's keys
// are cut at the same splitter keys, so part p merges a contiguous range of
// the merged key order, and the concatenated parts are the one-part merge.
// Each entry is charged to the part that merges it, exactly as the one-part
// merge charges it.  Run(p, env) merges part p on env's account; parts write
// disjoint regions of one result, so they may run concurrently.  Finish,
// after every part has run, moves the parts' keys together and returns the
// result, charging env a scan step per key it moves.
type MergeJob struct {
	parts  int
	run    func(p int, env Env) error
	finish func(env Env) any
}

// PlanMerge sizes op's merge of units and cuts it into parts key ranges
// (term vectors, which have no keys, always into one).  Units and env are as
// for MergeUnits; a unit's DocMap must be strictly increasing.
func PlanMerge(op Op, env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	m, ok := op.(merger)
	if !ok {
		return nil, fmt.Errorf("analytics: op %s is not mergeable", op.Name())
	}
	for u, unit := range units {
		for i := 1; i < len(unit.DocMap); i++ {
			if unit.DocMap[i] <= unit.DocMap[i-1] {
				return nil, fmt.Errorf("analytics: merge %s unit %d: document map not increasing at %d", op.Name(), u, i)
			}
		}
	}
	return m.plan(env, units, max(parts, 1))
}

// Parts returns the number of parts the job was cut into.
func (j *MergeJob) Parts() int { return j.parts }

// Run merges part p, charging env.
func (j *MergeJob) Run(p int, env Env) error { return j.run(p, env) }

// Finish stitches the merged parts into the op's result, charging env.
func (j *MergeJob) Finish(env Env) any { return j.finish(env) }

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

// keyRanges cuts every unit's keys, each ascending under cmp, into parts
// contiguous key ranges: unit u's keys in part p are keys[u][cuts[p][u]:
// cuts[p+1][u]].  The splitters are keys of the unit with the most entries,
// at entry-weighted quantiles — a key weighs one entry, or, when ends is
// given, the postings its list holds — and every unit is cut at the lower
// bound of each splitter, so equal keys fall into one part.
func keyRanges[K any](keys [][]K, ends [][]uint32, parts int, cmp func(a, b *K) int) [][]int {
	entries := func(u int) int {
		if ends == nil {
			return len(keys[u])
		}
		if n := len(ends[u]); n > 0 {
			return int(ends[u][n-1])
		}
		return 0
	}
	big := 0
	for u := range keys {
		if entries(u) > entries(big) {
			big = u
		}
	}
	cuts := make([][]int, parts+1)
	for p := range cuts {
		cuts[p] = make([]int, len(keys))
	}
	for u, l := range keys {
		cuts[parts][u] = len(l)
	}
	for p := 1; p < parts; p++ {
		q := int64(p) * int64(entries(big)) / int64(parts)
		i := int(q)
		if ends != nil {
			i = sort.Search(len(ends[big]), func(i int) bool { return int64(ends[big][i]) > q })
		}
		if i == len(keys[big]) {
			copy(cuts[p], cuts[parts])
			continue
		}
		split := &keys[big][i]
		for u, l := range keys {
			cuts[p][u] = sort.Search(len(l), func(j int) bool { return cmp(&l[j], split) >= 0 })
		}
	}
	return cuts
}

// subLists returns each unit's lists[u][lo[u]:hi[u]] and the number of
// entries before lo and within the range, summed over the units.
func subLists[E any](lists [][]E, lo, hi []int) (sub [][]E, before, n int) {
	sub = make([][]E, len(lists))
	for u, l := range lists {
		sub[u] = l[lo[u]:hi[u]]
		before += lo[u]
		n += len(sub[u])
	}
	return sub, before, n
}

// stitch moves every part's merged keys, written from the start of its
// region (starts[p]), down behind the previous part's, charging a scan step
// per key moved, and returns the merged key count.
func stitch(env Env, starts, lens []int, move func(dst, src, n int)) int {
	dst := 0
	for p, n := range lens {
		if starts[p] != dst && n > 0 {
			move(dst, starts[p], n)
			env.Charge(int64(n), metrics.CostScanToken)
		}
		dst += n
	}
	return dst
}

// planCounts cuts a key-wise counter sum: every entry read is charged
// perEntry modeled nanos, every merged entry perOut.
func planCounts[E any](op Op, units []MergeUnit, parts int, perEntry, perOut int64,
	cmp func(a, b *E) int, freq func(*E) *uint64) (*MergeJob, error) {
	lists, err := unitResults[[]E](op, units)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	cuts := keyRanges(lists, nil, parts, cmp)
	out := make([]E, total)
	starts, lens := make([]int, parts), make([]int, parts)
	return &MergeJob{parts: parts,
		run: func(p int, env Env) error {
			sub, at, n := subLists(lists, cuts[p], cuts[p+1])
			env.Charge(int64(n), perEntry)
			w := at
			kway(sub, cmp, func(from, pos []int) {
				out[w] = sub[from[0]][pos[from[0]]]
				sum := freq(&out[w])
				for _, u := range from[1:] {
					*sum += *freq(&sub[u][pos[u]])
				}
				w++
			})
			starts[p], lens[p] = at, w-at
			env.Charge(int64(lens[p]), perOut)
			return nil
		},
		finish: func(env Env) any {
			return out[:stitch(env, starts, lens, func(dst, src, n int) { copy(out[dst:], out[src:src+n]) })]
		},
	}, nil
}

// planWordCounts merges alphabetical word counters by the dictionary's rank
// table: integer compares, no word resolved.
func planWordCounts(op Op, env Env, units []MergeUnit, parts int, perOut int64) (*MergeJob, error) {
	rank, _ := env.Dict().Alphabetical()
	return planCounts(op, units, parts, metrics.CostMergeEntry, perOut,
		func(a, b *WordFreq) int { return cmp.Compare(rank[a.Word], rank[b.Word]) },
		func(e *WordFreq) *uint64 { return &e.Freq })
}

func (op WordCountOp) plan(env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	return planWordCounts(op, env, units, parts, 0)
}

// The merged vocabulary is charged the sort the shards' orders spare it.
func (op SortOp) plan(env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	return planWordCounts(op, env, units, parts, metrics.CostSortEntry)
}

func (op SequenceCountOp) plan(env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	words := env.Dict().Words()
	return planCounts(op, units, parts, metrics.CostSeqOp, 0,
		func(a, b *SeqFreq) int { return compareWire(words, a.Seq, b.Seq) },
		func(e *SeqFreq) *uint64 { return &e.Freq })
}

// plan places every unit's per-document vectors at their global document
// indices; vectors are already final (a document's term vector depends only
// on that document).  There are no keys to cut: one part.
func (op TermVectorsOp) plan(env Env, units []MergeUnit, _ int) (*MergeJob, error) {
	vecs, err := unitResults[[][]WordFreq](op, units)
	if err != nil {
		return nil, err
	}
	out := make([][]WordFreq, env.NumFiles())
	return &MergeJob{parts: 1,
		run: func(_ int, env Env) error {
			for u, in := range vecs {
				m := units[u].DocMap
				if m != nil && len(in) != len(m) {
					return fmt.Errorf("analytics: merge termvectors unit %d: %d documents, map %d", u, len(in), len(m))
				}
				env.Charge(int64(len(in)), metrics.CostMergeEntry)
				for i, vec := range in {
					doc := int(units[u].DocBase) + i
					if m != nil {
						doc = int(m[i])
					}
					if doc >= len(out) {
						return fmt.Errorf("analytics: merge termvectors unit %d: document %d exceeds %d documents", u, doc, len(out))
					}
					out[doc] = vec
				}
			}
			return nil
		},
		finish: func(Env) any { return out },
	}, nil
}

// planPostings merges each key's lists, one run per unit holding the key,
// with documents moved to their global indices (doc points at an item's
// document).  Every unit's list arrives in the op's item order (before), and
// a document offset or an increasing document map (PlanMerge refuses any
// other) keeps it, so a list one unit contributed is final and any other is
// the merge of its runs.  Every posting is charged CostMergeEntry, as
// planCounts charges an entry whatever the fan-in.  Items are never
// collapsed, so a part's postings go straight to their final offsets: only
// its keys and ends are stitched.
func planPostings[K comparable, T any](op Op, units []MergeUnit, parts int,
	cmp func(a, b *K) int, doc func(*T) *uint32, before func(a, b *T) int) (*MergeJob, error) {
	ps, err := unitResults[*Postings[K, T]](op, units)
	if err != nil {
		return nil, err
	}
	keys, ends, nkeys, nitems := make([][]K, len(ps)), make([][]uint32, len(ps)), 0, 0
	for u, p := range ps {
		keys[u], ends[u] = p.Keys, p.Ends
		nkeys += len(p.Keys)
		nitems += len(p.Items)
	}
	if nitems > math.MaxUint32 {
		return nil, fmt.Errorf("analytics: merge %s: %d postings, more than a result can index", op.Name(), nitems)
	}
	// itemsBefore counts the postings of the units' keys before cut.
	itemsBefore := func(cut []int) (n int) {
		for u, c := range cut {
			if c > 0 {
				n += int(ends[u][c-1])
			}
		}
		return n
	}
	cuts := keyRanges(keys, ends, parts, cmp)
	out := &Postings[K, T]{Keys: make([]K, nkeys), Ends: make([]uint32, nkeys), Items: make([]T, nitems)}
	starts, lens := make([]int, parts), make([]int, parts)
	return &MergeJob{parts: parts,
		run: func(p int, env Env) (err error) {
			sub, at, _ := subLists(keys, cuts[p], cuts[p+1])
			w := itemsBefore(cuts[p])
			env.Charge(int64(itemsBefore(cuts[p+1])-w), metrics.CostMergeEntry)
			nfiles := env.NumFiles()
			rm := runMerge[T]{before: before}
			k := at
			kway(sub, cmp, func(from, pos []int) {
				if err != nil {
					return
				}
				first, runs := w, len(from) > 1
				if runs {
					rm.start(nfiles)
				}
				rm.ends = rm.ends[:0]
				for _, u := range from {
					src := ps[u].List(cuts[p][u] + pos[u])
					l := out.Items[w : w+len(src)]
					copy(l, src)
					m, base := units[u].DocMap, int(units[u].DocBase)
					for i := range l {
						d := doc(&l[i])
						g := int(*d) + base
						if m != nil {
							if int(*d) >= len(m) {
								err = fmt.Errorf("analytics: merge %s unit %d: document %d outside map of %d", op.Name(), u, *d, len(m))
								return
							}
							g = int(m[*d])
						}
						if g >= nfiles {
							err = fmt.Errorf("analytics: merge %s unit %d: document %d exceeds %d documents", op.Name(), u, g, nfiles)
							return
						}
						*d = uint32(g)
						if runs {
							if rm.seen[g] == rm.stamp {
								err = fmt.Errorf("analytics: merge %s: document %d in two runs of one list", op.Name(), g)
								return
							}
							rm.seen[g] = rm.stamp
						}
					}
					w += len(l)
					rm.ends = append(rm.ends, w-first)
				}
				if runs {
					rm.merge(out.Items[first:w])
				}
				out.Keys[k], out.Ends[k] = sub[from[0]][pos[from[0]]], uint32(w)
				k++
			})
			starts[p], lens[p] = at, k-at
			return err
		},
		finish: func(env Env) any {
			n := stitch(env, starts, lens, func(dst, src, n int) {
				copy(out.Keys[dst:], out.Keys[src:src+n])
				copy(out.Ends[dst:], out.Ends[src:src+n])
			})
			out.Keys, out.Ends = out.Keys[:n], out.Ends[:n]
			return out
		},
	}, nil
}

// runMerge is one part's merge of a list's runs, its buffers reused from list
// to list: no allocation grows with the number of lists.
type runMerge[T any] struct {
	before func(a, b *T) int
	ends   []int    // run r of the list ends at l[ends[r]], the next starts there
	buf    []T      // the merged prefix, while the next run merges into it
	seen   []uint32 // per global document, the stamp of the last list it was in
	stamp  uint32
}

// start gives the next list of several runs a fresh stamp.
func (rm *runMerge[T]) start(nfiles int) {
	if rm.seen == nil {
		rm.seen = make([]uint32, nfiles)
	}
	rm.stamp++
}

// merge orders l, the runs at rm.ends end to end, each ascending under
// before, by merging each run into the ordered prefix before it.  A run that
// already follows its prefix stays as it is, so contiguous document ranges in
// document order cost one comparison.  Otherwise the prefix's items from the
// first one the run's head goes before move aside, and the two merge forward
// into l, where a write never passes the run's next item.
func (rm *runMerge[T]) merge(l []T) {
	before := rm.before
	for r := 1; r < len(rm.ends); r++ {
		mid, end := rm.ends[r-1], rm.ends[r]
		if mid == 0 || mid == end || before(&l[mid-1], &l[mid]) < 0 {
			continue
		}
		lo := 0
		for before(&l[lo], &l[mid]) < 0 {
			lo++
		}
		a, b, dst := append(rm.buf[:0], l[lo:mid]...), l[mid:end], l[lo:end]
		rm.buf = a
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if before(&b[j], &a[i]) < 0 {
				dst[i+j] = b[j]
				j++
			} else {
				dst[i+j] = a[i]
				i++
			}
		}
		copy(dst[i+j:], a[i:])
	}
}

func (op InvertedIndexOp) plan(env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	rank, _ := env.Dict().Alphabetical()
	return planPostings(op, units, parts,
		func(a, b *uint32) int { return cmp.Compare(rank[*a], rank[*b]) },
		func(doc *uint32) *uint32 { return doc },
		func(a, b *uint32) int { return cmp.Compare(*a, *b) })
}

func (op RankedInvertedIndexOp) plan(env Env, units []MergeUnit, parts int) (*MergeJob, error) {
	words := env.Dict().Words()
	return planPostings(op, units, parts,
		func(a, b *Seq) int { return compareWire(words, *a, *b) },
		func(p *DocFreq) *uint32 { return &p.Doc }, compareRanked)
}
