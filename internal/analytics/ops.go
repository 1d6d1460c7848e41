// The operation kernel: every analytics task is one DAG traversal with a
// different per-node action (TADOC's central framing), so each task reduces
// to an Op — a declaration of which traversal it needs (key space + scope)
// plus a Fold that turns the traversal's accumulated counters into the
// task's canonical result.  Executors (core on NVM, tadoc on DRAM, uncomp
// scanning raw text) own the traversal machinery once and run any Op through
// one Batch; a batch of Ops that agree on traversal requirements shares a
// single walk (fused execution), which is where the modeled device-read
// savings of RunOps come from.
package analytics

import (
	"errors"
	"fmt"

	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// KeySpace declares what an op's counter keys mean.
type KeySpace int

const (
	// KeyWords: counter keys are dictionary word IDs.
	KeyWords KeySpace = iota
	// KeySequences: counter keys are dense sequence ids the executor hands
	// out, below its declared FoldScratch.SeqKeys, resolved to Seq values
	// through Env.SeqOf.
	KeySequences
)

// Scope declares the granularity of the counters an op consumes.
type Scope int

const (
	// ScopeGlobal: one corpus-wide counter, delivered via Fold.Global.
	ScopeGlobal Scope = iota
	// ScopePerFile: one counter per document, delivered via Fold.File in
	// ascending document order.
	ScopePerFile
)

// Counts is a read-only view of one accumulated counter.  Keys are distinct
// ids of the key space the executor declared (see KeySpace, FoldScratch).
// Range order is unspecified; folds must not depend on it.  The view is valid
// only for the duration of the Fold callback it is passed to — executors
// reuse the backing storage between documents.
type Counts interface {
	// Len returns the number of distinct keys.
	Len() int64
	// Range calls fn for every (key, count) pair until fn returns false.
	Range(fn func(key, count uint64) bool)
}

// Env is what an executor offers a Fold: dictionary access, corpus shape,
// sequence-key resolution, and modeled-CPU charging.
type Env interface {
	Dict() *dict.Dictionary
	NumFiles() int
	// SeqOf resolves a KeySequences counter key to its sequence.
	SeqOf(key uint64) Seq
	// Charge adds n operations of perOp modeled nanos each to the run's
	// CPU meter.
	Charge(n, perOp int64)
}

// Fold consumes an op's traversal counters and produces its result.  Exactly
// one of Global/File is used, per the op's Scope; Finish is called once after
// all deliveries.
type Fold interface {
	Global(c Counts) error
	File(doc uint32, c Counts) error
	Finish() (any, error)
}

// Op declares one analytics task to the traversal kernel: which key space
// its counters live in, at what scope they accumulate, and how the fold
// turns them into the task's result.
type Op interface {
	Task() Task
	Name() string
	Keys() KeySpace
	Scope() Scope
	NewFold(env Env) Fold
}

// Executor runs registered ops; every engine implements it.  RunOps executes
// a batch over as few traversals as the ops' declarations allow and returns
// results positionally.
type Executor interface {
	RunOps(ops []Op) ([]any, error)
}

// Batch is one run of a batch of ops: it makes their folds, groups them by
// the pass that feeds them — a (scope, key space) pair — and hands each
// pass's counters to that group in op order.  An executor keeps only its
// passes: it runs those the batch Needs, delivers each counter through Global
// or File as the pass produces it, and ends with Finish.
type Batch struct{ slots []slot }

type slot struct {
	fold  Fold
	scope Scope
	keys  KeySpace
}

// NewBatch makes the folds of ops under env.
func NewBatch(ops []Op, env Env) *Batch {
	b := &Batch{slots: make([]slot, len(ops))}
	for i, op := range ops {
		b.slots[i] = slot{op.NewFold(env), op.Scope(), op.Keys()}
	}
	return b
}

// Needs reports whether an op of the batch consumes the counters of keys at
// scope.
func (b *Batch) Needs(scope Scope, keys KeySpace) bool {
	for _, s := range b.slots {
		if s.scope == scope && s.keys == keys {
			return true
		}
	}
	return false
}

// Global delivers the corpus-wide counter of keys to the global ops that
// consume it.
func (b *Batch) Global(keys KeySpace, c Counts) error {
	for _, s := range b.slots {
		if s.scope == ScopeGlobal && s.keys == keys {
			if err := s.fold.Global(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// File delivers document doc's counter of keys to the per-file ops that
// consume it; documents arrive in ascending order.
func (b *Batch) File(keys KeySpace, doc uint32, c Counts) error {
	for _, s := range b.slots {
		if s.scope == ScopePerFile && s.keys == keys {
			if err := s.fold.File(doc, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finish finishes every fold and returns the results positionally.
func (b *Batch) Finish() ([]any, error) {
	results := make([]any, len(b.slots))
	for i, s := range b.slots {
		var err error
		if results[i], err = s.fold.Finish(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunAs runs one op on x and asserts its concrete result type.
func RunAs[T any](x Executor, op Op) (T, error) {
	var zero T
	results, err := x.RunOps([]Op{op})
	if err != nil {
		return zero, err
	}
	out, ok := results[0].(T)
	if !ok {
		return zero, fmt.Errorf("analytics: op %s returned %T", op.Name(), results[0])
	}
	return out, nil
}

// The six tasks as typed single-op runs on any executor, the keyed ops'
// arrays converted to the reference implementations' maps (MapResult).

// WordCount returns global word -> frequency.
func WordCount(x Executor) (map[uint32]uint64, error) {
	return runMapped[map[uint32]uint64](x, WordCountOp{})
}

// Sort returns (word, freq) pairs in alphabetical order of the word strings.
func Sort(x Executor) ([]WordFreq, error) {
	return RunAs[[]WordFreq](x, SortOp{})
}

// TermVectors returns, per document, its words ordered by descending
// frequency (word ID ascending on ties), truncated to k when k > 0.
func TermVectors(x Executor, k int) ([][]WordFreq, error) {
	return RunAs[[][]WordFreq](x, TermVectorsOp{K: k})
}

// InvertedIndex returns word -> ascending list of documents containing it.
func InvertedIndex(x Executor) (map[uint32][]uint32, error) {
	return runMapped[map[uint32][]uint32](x, InvertedIndexOp{})
}

// SequenceCount returns global n-gram -> frequency.
func SequenceCount(x Executor) (map[Seq]uint64, error) {
	return runMapped[map[Seq]uint64](x, SequenceCountOp{})
}

// RankedInvertedIndex returns n-gram -> postings ordered by descending
// per-document frequency (document ascending on ties).
func RankedInvertedIndex(x Executor) (map[Seq][]DocFreq, error) {
	return runMapped[map[Seq][]DocFreq](x, RankedInvertedIndexOp{})
}

// runMapped runs one keyed op on x and returns its result in map form.
func runMapped[M any](x Executor, op Op) (M, error) {
	var zero M
	res, err := RunAs[any](x, op)
	if err != nil {
		return zero, err
	}
	out, ok := MapResult(op, res).(M)
	if !ok {
		return zero, fmt.Errorf("analytics: op %s returned %T", op.Name(), res)
	}
	return out, nil
}

// MapResult returns op's result in the form the reference implementations
// produce: a keyed op's arrays (word count's []WordFreq, sequence count's
// []SeqFreq, the posting ops' Postings), in whatever order, become the map
// from key to count or list — lists alias the result's backing array, each
// clipped; the other ops' results are already in that form.
func MapResult(op Op, res any) any {
	switch r := res.(type) {
	case []WordFreq:
		if op.Task() != TaskWordCount {
			return r
		}
		out := make(map[uint32]uint64, len(r))
		for _, wf := range r {
			out[wf.Word] = wf.Freq
		}
		return out
	case []SeqFreq:
		out := make(map[Seq]uint64, len(r))
		for _, sf := range r {
			out[sf.Seq] = sf.Freq
		}
		return out
	case *Postings[uint32, uint32]:
		return r.Map()
	case *Postings[Seq, DocFreq]:
		return r.Map()
	}
	return res
}

// Run dispatches task t on x with default parameters, discarding the
// result.  The harness uses it when only timing and device statistics
// matter.
func Run(x Executor, t Task) error {
	op, err := OpFor(t)
	if err != nil {
		return err
	}
	_, err = x.RunOps([]Op{op})
	return err
}

// DefaultTermVectorK is the per-document vector length used by the Run
// dispatcher and the Ops registry.
const DefaultTermVectorK = 10

// Ops returns one registered op per task, in the paper's task order, with
// default parameters.  This is the table the cross-executor differential
// harness iterates.
func Ops() []Op {
	return []Op{
		WordCountOp{},
		SortOp{},
		TermVectorsOp{K: DefaultTermVectorK},
		InvertedIndexOp{},
		SequenceCountOp{},
		RankedInvertedIndexOp{},
	}
}

// OpFor returns the registered op for task t with default parameters.
func OpFor(t Task) (Op, error) {
	for _, op := range Ops() {
		if op.Task() == t {
			return op, nil
		}
	}
	return nil, fmt.Errorf("analytics: no op registered for task %v", t)
}

var errFoldScope = errors.New("analytics: fold called outside its declared scope")

// WordCountOp counts every word's corpus-wide frequency: one WordFreq per
// distinct word, in key order.
type WordCountOp struct{}

func (WordCountOp) Task() Task     { return TaskWordCount }
func (WordCountOp) Name() string   { return "wordcount" }
func (WordCountOp) Keys() KeySpace { return KeyWords }
func (WordCountOp) Scope() Scope   { return ScopeGlobal }
func (WordCountOp) NewFold(env Env) Fold {
	return &countFold[WordFreq]{env: env, keys: KeyWords, cost: metrics.CostHashOp, item: wordFreqOf, out: []WordFreq{}}
}

func wordFreqOf(k uint64, _ uint32, n uint64) WordFreq { return WordFreq{Word: uint32(k), Freq: n} }

// countFold is the fold of the global keyed ops: the one counter it is
// delivered is filed as records and grouped on the spot into one item per key,
// in key order; a per-file fold of the batch borrows the record buffer next.
type countFold[E any] struct {
	env  Env
	keys KeySpace
	cost int64 // modeled nanos per key delivered
	item func(key uint64, doc uint32, freq uint64) E
	out  []E
}

func (f *countFold[E]) Global(c Counts) error {
	f.env.Charge(c.Len(), f.cost)
	var r perFileRecords
	if err := r.attach(f.env, f.keys, true); err != nil {
		return err
	}
	defer func() { r.buf.lent = false }()
	if err := r.buf.collect(0, c, r.keySpace); err != nil {
		return err
	}
	f.out = group[struct{}](&r, nil, f.item, nil).Items
	return nil
}
func (f *countFold[E]) File(uint32, Counts) error { return errFoldScope }
func (f *countFold[E]) Finish() (any, error)      { return f.out, nil }

// SortOp produces the full vocabulary with counts in dictionary order: word
// count's result, which the declared word order makes alphabetical.
type SortOp struct{}

func (SortOp) Task() Task     { return TaskSort }
func (SortOp) Name() string   { return "sort" }
func (SortOp) Keys() KeySpace { return KeyWords }
func (SortOp) Scope() Scope   { return ScopeGlobal }
func (SortOp) NewFold(env Env) Fold {
	return &countFold[WordFreq]{env: env, keys: KeyWords,
		cost: metrics.CostHashOp + metrics.CostSortEntry, item: wordFreqOf, out: []WordFreq{}}
}

// TermVectorsOp produces each document's top-K most frequent words.
type TermVectorsOp struct{ K int }

func (TermVectorsOp) Task() Task     { return TaskTermVector }
func (TermVectorsOp) Name() string   { return "termvectors" }
func (TermVectorsOp) Keys() KeySpace { return KeyWords }
func (TermVectorsOp) Scope() Scope   { return ScopePerFile }
func (o TermVectorsOp) NewFold(env Env) Fold {
	return &termVectorsFold{env: env, k: o.K, out: make([][]WordFreq, env.NumFiles())}
}

type termVectorsFold struct {
	env     Env
	k       int
	out     [][]WordFreq
	scratch *FoldScratch // attached by the first File; nil on the merge path
}

func (f *termVectorsFold) Global(Counts) error { return errFoldScope }
func (f *termVectorsFold) File(doc uint32, c Counts) error {
	if f.scratch == nil {
		f.scratch = scratchOf(f.env)
	}
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	vec := f.scratch.vec[:0]
	c.Range(func(k, v uint64) bool {
		vec = append(vec, WordFreq{Word: uint32(k), Freq: v})
		return true
	})
	f.scratch.vec = vec
	f.out[doc] = topTerms(vec, f.k)
	return nil
}
func (f *termVectorsFold) Finish() (any, error) { return f.out, nil }

// InvertedIndexOp maps every word to the sorted documents containing it.
type InvertedIndexOp struct{}

func (InvertedIndexOp) Task() Task     { return TaskInvertedIndex }
func (InvertedIndexOp) Name() string   { return "invertedindex" }
func (InvertedIndexOp) Keys() KeySpace { return KeyWords }
func (InvertedIndexOp) Scope() Scope   { return ScopePerFile }
func (InvertedIndexOp) NewFold(env Env) Fold {
	return &invertedIndexFold{env: env}
}

type invertedIndexFold struct {
	env Env
	perFileRecords
}

// perFileRecords is the state of a keyed fold: one flat record per
// (document, key) delivered, in a scratch-lent buffer, grouped into the
// result at Finish.
type perFileRecords struct {
	scratch  *FoldScratch // attached by the first use
	buf      *postingBuf
	keySpace int
	order    KeyOrder
}

// attach borrows the fold's record buffer from env's scratch, with a count
// column when withFreq.
func (r *perFileRecords) attach(env Env, ks KeySpace, withFreq bool) error {
	if r.scratch != nil {
		return nil
	}
	s := scratchOf(env)
	n, order, err := s.keySpace(ks)
	if err != nil {
		return err
	}
	r.scratch, r.buf, r.keySpace, r.order = s, s.lend(withFreq), n, order
	return nil
}

func (f *invertedIndexFold) Global(Counts) error { return errFoldScope }
func (f *invertedIndexFold) File(doc uint32, c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp+metrics.CostSortEntry)
	if err := f.attach(f.env, KeyWords, false); err != nil {
		return err
	}
	return f.buf.collect(doc, c, f.keySpace)
}
func (f *invertedIndexFold) Finish() (any, error) {
	// Documents arrive in ascending order, so each word's group is already
	// its sorted posting list.
	if err := f.attach(f.env, KeyWords, false); err != nil {
		return nil, err
	}
	return group(&f.perFileRecords,
		func(k uint64) uint32 { return uint32(k) },
		func(_ uint64, doc uint32, _ uint64) uint32 { return doc }, nil), nil
}

// SequenceCountOp counts every SeqLen-window's corpus-wide frequency.
type SequenceCountOp struct{}

func (SequenceCountOp) Task() Task     { return TaskSequenceCount }
func (SequenceCountOp) Name() string   { return "seqcount" }
func (SequenceCountOp) Keys() KeySpace { return KeySequences }
func (SequenceCountOp) Scope() Scope   { return ScopeGlobal }
func (SequenceCountOp) NewFold(env Env) Fold {
	return &countFold[SeqFreq]{env: env, keys: KeySequences, cost: metrics.CostHashOp, out: []SeqFreq{},
		item: func(k uint64, _ uint32, n uint64) SeqFreq { return SeqFreq{Seq: env.SeqOf(k), Freq: n} }}
}

// RankedInvertedIndexOp maps every sequence to its postings ranked by
// frequency.
type RankedInvertedIndexOp struct{}

func (RankedInvertedIndexOp) Task() Task     { return TaskRankedInvertedIndex }
func (RankedInvertedIndexOp) Name() string   { return "rankedindex" }
func (RankedInvertedIndexOp) Keys() KeySpace { return KeySequences }
func (RankedInvertedIndexOp) Scope() Scope   { return ScopePerFile }
func (RankedInvertedIndexOp) NewFold(env Env) Fold {
	return &rankedIndexFold{env: env}
}

type rankedIndexFold struct {
	env Env
	perFileRecords
}

func (f *rankedIndexFold) Global(Counts) error { return errFoldScope }
func (f *rankedIndexFold) File(doc uint32, c Counts) error {
	f.env.Charge(c.Len(), metrics.CostHashOp)
	if err := f.attach(f.env, KeySequences, true); err != nil {
		return err
	}
	return f.buf.collect(doc, c, f.keySpace)
}
func (f *rankedIndexFold) Finish() (any, error) {
	if err := f.attach(f.env, KeySequences, true); err != nil {
		return nil, err
	}
	f.env.Charge(int64(f.buf.len()), metrics.CostSortEntry)
	return group(&f.perFileRecords, f.env.SeqOf,
		func(_ uint64, doc uint32, freq uint64) DocFreq { return DocFreq{Doc: doc, Freq: freq} },
		func(list []DocFreq) { RankPostingsSorted(list) }), nil
}

// WordMapCounts adapts a word-keyed count map.
type WordMapCounts map[uint32]uint64

func (m WordMapCounts) Len() int64 { return int64(len(m)) }
func (m WordMapCounts) Range(fn func(k, v uint64) bool) {
	//ntalint:ignore determcheck Counts.Range order is contractually unspecified; folds consume it commutatively and sort at Finish.
	for k, v := range m {
		if !fn(uint64(k), v) {
			return
		}
	}
}
