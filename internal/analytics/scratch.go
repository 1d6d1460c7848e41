package analytics

import (
	"fmt"
	"math"
	"slices"
)

// FoldScratch is the working memory the per-file folds accumulate in, and
// the place an executor declares its key spaces.  Every executor offers one
// through ScratchEnv and calls Reset at the start of every run; one kept
// across runs (core's traversal workspace) keeps its buffers' capacity from
// request to request.
//
// Nothing a fold returns aliases scratch memory: Finish copies what it keeps
// into arrays of its own, because callers hold results across later runs.
type FoldScratch struct {
	// WordKeys and SeqKeys declare the dense key spaces: every key of a
	// KeyWords (KeySequences) counter is an id below it, and folds index
	// arrays of that size by key.  A space left at zero holds no key.
	WordKeys, SeqKeys int
	// WordOrder ranks every word key and SeqOrder, when set, every sequence
	// key; keyed results come out in that order (wire order, see KeyOrder),
	// sequence results without one by ascending key.  The word order is
	// required: it is the sort op's alphabetical order.
	WordOrder, SeqOrder KeyOrder

	bufs   []*postingBuf // every buffer ever lent
	counts []uint32      // counting-sort offsets, one per key
	vec    []WordFreq    // term-vector selection
}

// ScratchEnv is the Env capability that lends folds an executor-owned
// FoldScratch.  Every executor's Env has it; the merge path's Env, which runs
// no fold, need not.
type ScratchEnv interface {
	Env
	FoldScratch() *FoldScratch
}

// scratchOf returns env's scratch, or a fresh one declaring empty key spaces:
// a keyed fold on such an Env reports its first key as outside them.
func scratchOf(env Env) *FoldScratch {
	if se, ok := env.(ScratchEnv); ok {
		return se.FoldScratch()
	}
	return &FoldScratch{}
}

// postingBuf is one per-file fold's record buffer, lent for a run: one record
// per (document, key) delivered, as parallel arrays so that each fold pays
// only for the columns it needs and keys are ids of the declared key space.
// A record's document is not stored: records arrive a document at a time, so
// docs keeps where each document's run ends.
type postingBuf struct {
	keys     []uint32
	freqs    []uint64 // counts, when the fold keeps them
	docs     []docRun
	lent     bool // in use by a fold of the current run
	withFreq bool // has a count column: for folds that keep counts
}

// docRun says records [previous run's end, end) belong to document doc.
type docRun struct{ doc, end uint32 }

func (b *postingBuf) len() int { return len(b.keys) }

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
	b.keys, b.freqs, b.docs = b.keys[:0], b.freqs[:0], b.docs[:0]
	return b
}

// keySpace returns the declared size of ks's key space and its order.
func (s *FoldScratch) keySpace(ks KeySpace) (int, KeyOrder, error) {
	n, o := s.SeqKeys, s.SeqOrder
	if ks == KeyWords {
		n, o = s.WordKeys, s.WordOrder
	}
	// An order ranks every key, and a word key space comes with one.
	if (o.Rank != nil || ks == KeyWords) && len(o.Rank) < n {
		return 0, KeyOrder{}, fmt.Errorf("analytics: key space of %d keys with %d ranked", n, len(o.Rank))
	}
	return n, o, nil
}

// Bytes reports the memory the scratch currently holds.
func (s *FoldScratch) Bytes() int64 {
	n := int64(cap(s.counts))*4 + int64(cap(s.vec))*16
	for _, b := range s.bufs {
		n += int64(cap(b.keys))*4 + int64(cap(b.freqs)+cap(b.docs))*8
	}
	return n
}

// collect files one record per key of c, for document doc, with the key's
// count when the buffer was lent for counts.  Each column grows by what the
// document needs, not by doubling: the buffer outlives the run.  A key outside
// the declared key space is the executor's bug, reported rather than left to
// index out of range at Finish.
func (b *postingBuf) collect(doc uint32, c Counts, keySpace int) error {
	n, withFreq := int(c.Len()), b.withFreq
	keys, freqs := slices.Grow(b.keys, n), b.freqs
	if withFreq {
		freqs = slices.Grow(freqs, n)
	}
	var bad uint64
	ok := true
	c.Range(func(k, v uint64) bool {
		if k >= uint64(keySpace) {
			bad, ok = k, false
			return false
		}
		keys = append(keys, uint32(k))
		if withFreq {
			freqs = append(freqs, v)
		}
		return true
	})
	b.keys, b.freqs = keys, freqs
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
// The grouping is a stable counting sort scattered straight into the backing
// array.
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
	for _, k := range b.keys {
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
			k := b.keys[i]
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
			if finish != nil {
				finish(out.Items[lo:hi])
			}
			out.Keys, out.Ends = append(out.Keys, key(k)), append(out.Ends, hi)
		}
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
