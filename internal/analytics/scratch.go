package analytics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// FoldScratch is the working memory the per-file folds accumulate in, and
// the place an executor declares its key spaces.  An executor that keeps one
// across runs (core's traversal workspace) offers it through ScratchEnv and
// calls Reset at the start of every run; its buffers then keep their
// capacity from request to request.  Folds on any other Env get a fresh one
// and behave the same, only allocating as they go.
//
// Nothing a fold returns aliases scratch memory: Finish copies what it keeps
// into arrays of its own, because callers hold results across later runs.
type FoldScratch struct {
	// WordKeys and SeqKeys declare dense key spaces: when positive, every
	// key of a KeyWords (KeySequences) counter is an id below it, and folds
	// may index arrays of that size by key.  Zero declares nothing — keys may
	// be any uint64 (uncomp packs a whole sequence into one) — and folds fall
	// back to comparison sorts whose memory is linear in the records seen.
	WordKeys, SeqKeys int
	// WordOrder and SeqOrder, when set, rank every key of the declared key
	// spaces, and keyed results come out in that order (wire order, see
	// KeyOrder) rather than by ascending key.
	WordOrder, SeqOrder KeyOrder

	bufs   []*postingBuf // every buffer ever lent
	counts []uint32      // counting-sort offsets, one per key
	vec    []WordFreq    // term-vector selection
}

// ScratchEnv is the optional Env capability that lends folds an
// executor-owned FoldScratch.
type ScratchEnv interface {
	Env
	FoldScratch() *FoldScratch
}

// scratchOf returns env's scratch, or a fresh one declaring no key space.
func scratchOf(env Env) *FoldScratch {
	if se, ok := env.(ScratchEnv); ok {
		return se.FoldScratch()
	}
	return &FoldScratch{}
}

// postingBuf is one per-file fold's record buffer, lent for a run: one record
// per (document, key) delivered, as parallel arrays so that each fold pays
// only for the columns it needs and a declared key space for half-width keys.
// A record's document is not stored: records arrive a document at a time, so
// docs keeps where each document's run ends.
type postingBuf struct {
	k32      []uint32 // keys, under a declared key space
	k64      []uint64 // keys, otherwise
	freqs    []uint64 // counts, when the fold keeps them
	docs     []docRun
	lent     bool // in use by a fold of the current run
	withFreq bool // has a count column: for folds that keep counts
}

// docRun says records [previous run's end, end) belong to document doc.
type docRun struct{ doc, end uint32 }

func (b *postingBuf) len() int { return len(b.k32) + len(b.k64) }

// Reset reclaims every lent buffer.  Executors call it at the start of a
// run, so a run abandoned midway (cancellation) leaves nothing behind.
func (s *FoldScratch) Reset() {
	for _, b := range s.bufs {
		b.lent = false
	}
}

// lend hands out an empty record buffer for the rest of the run.  Buffers
// come in two shapes, with a count column and without, and a fold only ever
// gets its own shape: handing a count-less fold the buffer whose count column
// another fold of the batch needs would make that one grow a second column.
func (s *FoldScratch) lend(withFreq bool) *postingBuf {
	var b *postingBuf
	for _, c := range s.bufs {
		if !c.lent && c.withFreq == withFreq {
			b = c
			break
		}
	}
	if b == nil {
		b = &postingBuf{withFreq: withFreq}
		s.bufs = append(s.bufs, b)
	}
	b.lent = true
	b.k32, b.k64, b.freqs, b.docs = b.k32[:0], b.k64[:0], b.freqs[:0], b.docs[:0]
	return b
}

// keySpace returns the declared size of ks's key space, 0 when undeclared,
// and its declared order.
func (s *FoldScratch) keySpace(ks KeySpace) (int, KeyOrder) {
	if ks == KeyWords {
		return s.WordKeys, s.WordOrder
	}
	return s.SeqKeys, s.SeqOrder
}

// Bytes reports the memory the scratch currently holds.
func (s *FoldScratch) Bytes() int64 {
	n := int64(cap(s.counts))*4 + int64(cap(s.vec))*16
	for _, b := range s.bufs {
		n += int64(cap(b.k32))*4 + int64(cap(b.k64)+cap(b.freqs)+cap(b.docs))*8
	}
	return n
}

// collect files one record per key of c, for document doc, with the key's
// count when the buffer was lent for counts.  Each column grows by what the document needs, not by
// doubling: the buffer outlives the run.  Under a declared key space a key
// outside it is the executor's bug, reported rather than left to index out
// of range at Finish.
func (b *postingBuf) collect(doc uint32, c Counts, keySpace int) error {
	n, withFreq := int(c.Len()), b.withFreq
	k32, k64, freqs := b.k32, b.k64, b.freqs
	if keySpace > 0 {
		k32 = slices.Grow(k32, n)
	} else {
		k64 = slices.Grow(k64, n)
	}
	if withFreq {
		freqs = slices.Grow(freqs, n)
	}
	var bad uint64
	ok := true
	c.Range(func(k, v uint64) bool {
		switch {
		case keySpace == 0:
			k64 = append(k64, k)
		case k < uint64(keySpace):
			k32 = append(k32, uint32(k))
		default:
			bad, ok = k, false
			return false
		}
		if withFreq {
			freqs = append(freqs, v)
		}
		return true
	})
	b.k32, b.k64, b.freqs = k32, k64, freqs
	if !ok {
		return fmt.Errorf("analytics: counter key %d outside the declared key space of %d", bad, keySpace)
	}
	if b.len() > math.MaxUint32 {
		return fmt.Errorf("analytics: per-file fold holds %d records, more than its run table can index", b.len())
	}
	b.docs = append(b.docs, docRun{doc: doc, end: uint32(b.len())})
	return nil
}

// group turns a fold's records into its result: one item per record in a
// backing array allocated here (freq is 0 for a buffer collected without
// counts), sorted by key — by rank when the key space declared an order —
// and within a key in arrival order, which is document order since documents
// are delivered ascending.  With key non-nil the distinct keys and where each
// one's items end come with it, and finish, when non-nil, puts each list into
// its canonical order; a global fold, one record a key, keeps only the items.
//
// With a declared key space the grouping is a stable counting sort scattered
// straight into the backing array; otherwise a stable comparison sort of the
// records, which never allocates by key magnitude.
func group[K comparable, T any](r *perFileRecords, key func(uint64) K,
	item func(k uint64, doc uint32, freq uint64) T, finish func([]T)) *Postings[K, T] {
	s, b := r.scratch, r.buf
	out := &Postings[K, T]{Items: make([]T, b.len())}
	freqOf := func(i int) uint64 {
		if i < len(b.freqs) {
			return b.freqs[i]
		}
		return 0
	}
	put := func(k uint64, lo, hi uint32) {
		if finish != nil {
			finish(out.Items[lo:hi])
		}
		out.Keys, out.Ends = append(out.Keys, key(k)), append(out.Ends, hi)
	}
	if r.keySpace > 0 {
		rank, buckets := r.order.Rank, max(r.keySpace, len(r.order.Rank)) // an order ranks every key
		if cap(s.counts) < buckets {
			s.counts = make([]uint32, buckets)
		}
		ends := s.counts[:buckets]
		clear(ends)
		slot := func(k uint32) uint32 {
			if rank != nil {
				return rank[k]
			}
			return k
		}
		for _, k := range b.k32 {
			ends[slot(k)]++
		}
		// Turn the histogram into each group's start offset.
		distinct, next := 0, uint32(0)
		for k, n := range ends {
			if n != 0 {
				distinct++
			}
			ends[k] = next
			next += n
		}
		// Scatter, a document at a time; each cursor ends on its group's end.
		i := 0
		for _, run := range b.docs {
			for ; i < int(run.end); i++ {
				k := b.k32[i]
				at := &ends[slot(k)]
				out.Items[*at] = item(uint64(k), run.doc, freqOf(i))
				*at++
			}
		}
		if key == nil {
			return out
		}
		out.Keys, out.Ends = make([]K, 0, distinct), make([]uint32, 0, distinct)
		lo := uint32(0)
		for at, hi := range ends {
			if hi > lo {
				k := uint64(at)
				if rank != nil {
					k = uint64(r.order.Order[at])
				}
				put(k, lo, hi)
			}
			lo = hi
		}
		return out
	}
	type rec struct {
		key, freq uint64
		doc       uint32
	}
	recs := make([]rec, 0, len(b.k64))
	for _, run := range b.docs {
		for i := len(recs); i < int(run.end); i++ {
			recs = append(recs, rec{key: b.k64[i], freq: freqOf(i), doc: run.doc})
		}
	}
	slices.SortStableFunc(recs, func(x, y rec) int { return cmp.Compare(x.key, y.key) })
	for i, r := range recs {
		out.Items[i] = item(r.key, r.doc, r.freq)
	}
	for lo := 0; key != nil && lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].key == recs[lo].key {
			hi++
		}
		put(recs[lo].key, uint32(lo), uint32(hi))
		lo = hi
	}
	return out
}

// topTerms returns the canonical term vector of one document's (word, freq)
// pairs — descending frequency, ascending word ID on ties, truncated to k
// when k > 0 — in a slice of its own.  vec is scratch and is reordered.  A
// truncating call keeps the k best seen so far in a heap, worst on top, so
// only the survivors are ever sorted.
func topTerms(vec []WordFreq, k int) []WordFreq {
	if k > 0 && len(vec) > k {
		worse := func(a, b WordFreq) bool { // a ranks after b
			if a.Freq != b.Freq {
				return a.Freq < b.Freq
			}
			return a.Word > b.Word
		}
		heap := vec[:k]
		sift := func(i int) {
			for {
				c := 2*i + 1
				if c >= k {
					return
				}
				if c+1 < k && worse(heap[c+1], heap[c]) {
					c++
				}
				if !worse(heap[c], heap[i]) {
					return
				}
				heap[i], heap[c] = heap[c], heap[i]
				i = c
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			sift(i)
		}
		for _, wf := range vec[k:] {
			if worse(heap[0], wf) {
				heap[0] = wf
				sift(0)
			}
		}
		vec = heap
	}
	out := make([]WordFreq, len(vec)) // never nil: an empty document's vector is empty
	copy(out, vec)
	return TermVectorSorted(out, 0)
}
