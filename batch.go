package ntadoc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
)

// Task names one of the six analytics tasks for batch execution.
type Task int

// The analytics tasks, in the paper's order.
const (
	TaskWordCount Task = iota
	TaskSort
	TaskTermVectors
	TaskInvertedIndex
	TaskSequenceCount
	TaskRankedInvertedIndex
)

// AllTasks lists every task in the paper's order.
var AllTasks = []Task{
	TaskWordCount, TaskSort, TaskTermVectors,
	TaskInvertedIndex, TaskSequenceCount, TaskRankedInvertedIndex,
}

// String returns the task's command-line name.
func (t Task) String() string {
	switch t {
	case TaskWordCount:
		return "wordcount"
	case TaskSort:
		return "sort"
	case TaskTermVectors:
		return "termvector"
	case TaskInvertedIndex:
		return "invertedindex"
	case TaskSequenceCount:
		return "seqcount"
	case TaskRankedInvertedIndex:
		return "rankedindex"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// ParseTask resolves a command-line task name.
func ParseTask(s string) (Task, error) {
	for _, t := range AllTasks {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("ntadoc: unknown task %q", s)
}

// NeedsSequences reports whether the task requires sequence preprocessing
// (i.e. it fails on engines built with NoSequences).
func (t Task) NeedsSequences() bool {
	return t == TaskSequenceCount || t == TaskRankedInvertedIndex
}

// op returns the task's registered analytics op; k parameterizes the
// term-vector length (0 selects the default).
func (t Task) op(k int) (analytics.Op, error) {
	switch t {
	case TaskWordCount:
		return analytics.WordCountOp{}, nil
	case TaskSort:
		return analytics.SortOp{}, nil
	case TaskTermVectors:
		if k <= 0 {
			k = analytics.DefaultTermVectorK
		}
		return analytics.TermVectorsOp{K: k}, nil
	case TaskInvertedIndex:
		return analytics.InvertedIndexOp{}, nil
	case TaskSequenceCount:
		return analytics.SequenceCountOp{}, nil
	case TaskRankedInvertedIndex:
		return analytics.RankedInvertedIndexOp{}, nil
	default:
		return nil, fmt.Errorf("ntadoc: unknown task %d", int(t))
	}
}

// BatchSpec is a canonicalized batch request: the deduplicated tasks in the
// paper's order plus the batch's only parameter, the term-vector length.
// Canonical form is what makes request shaping shareable — the CLI's
// one-shot path, the daemon's coalescer (which keys in-flight singleflights
// by Signature), and its result cache all reduce a request to the same
// BatchSpec, so "sort,wordcount" and "wordcount,sort" are one batch
// everywhere.  The zero value is an empty batch.
type BatchSpec struct {
	tasks []Task
	k     int
}

// NewBatchSpec canonicalizes a batch request: tasks are deduplicated and
// ordered canonically (the paper's task order), and termVectorK is dropped
// unless the batch computes term vectors with a non-default length.
// Unknown Task values are preserved and surface as errors at execution.
func NewBatchSpec(tasks []Task, termVectorK int) BatchSpec {
	uniq := make([]Task, 0, len(tasks))
	seen := make(map[Task]bool, len(tasks))
	for _, t := range tasks {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	if termVectorK <= 0 || termVectorK == analytics.DefaultTermVectorK || !seen[TaskTermVectors] {
		termVectorK = 0
	}
	return BatchSpec{tasks: uniq, k: termVectorK}
}

// ParseBatchSpec canonicalizes a batch request given by task names.
func ParseBatchSpec(names []string, termVectorK int) (BatchSpec, error) {
	tasks := make([]Task, 0, len(names))
	for _, name := range names {
		t, err := ParseTask(strings.TrimSpace(name))
		if err != nil {
			return BatchSpec{}, err
		}
		tasks = append(tasks, t)
	}
	return NewBatchSpec(tasks, termVectorK), nil
}

// Tasks returns the canonical task list.
func (b BatchSpec) Tasks() []Task { return append([]Task(nil), b.tasks...) }

// TermVectorK returns the term-vector length (0 means the default).
func (b BatchSpec) TermVectorK() int { return b.k }

// NeedsSequences reports whether any task in the batch requires sequence
// preprocessing.
func (b BatchSpec) NeedsSequences() bool {
	for _, t := range b.tasks {
		if t.NeedsSequences() {
			return true
		}
	}
	return false
}

// Signature returns the batch's canonical string form, e.g.
// "wordcount+termvector@k=5".  Equal signatures mean identical batches:
// the daemon's coalescer and result cache key on it.
func (b BatchSpec) Signature() string {
	return string(b.AppendSignature(make([]byte, 0, 80))) // the six-task batch's is 59 bytes
}

// AppendSignature appends Signature() to dst, for callers assembling a
// larger key around it.
func (b BatchSpec) AppendSignature(dst []byte) []byte {
	for i, t := range b.tasks {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = append(dst, t.String()...)
	}
	if b.k > 0 {
		dst = append(dst, "@k="...)
		dst = strconv.AppendInt(dst, int64(b.k), 10)
	}
	return dst
}

// ops materializes the batch's analytics ops.
func (b BatchSpec) ops() ([]analytics.Op, error) {
	ops := make([]analytics.Op, len(b.tasks))
	for i, t := range b.tasks {
		op, err := t.op(b.k)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// BatchResult holds the results of one fused batch.  Only the fields of the
// tasks that were requested are populated.  TermVectors holds the spec's
// term-vector length (default analytics.DefaultTermVectorK entries per
// document).
type BatchResult struct {
	WordCount           map[string]uint64
	Sort                []TermCount
	TermVectors         [][]TermCount
	InvertedIndex       map[string][]string
	SequenceCount       map[string]uint64
	RankedInvertedIndex map[string][]DocCount
}

// RunBatch executes the given tasks as one fused traversal: the underlying
// engine walks its representation once and feeds every compatible task from
// the same reads, so a batch costs substantially fewer modeled device reads
// than running the tasks sequentially.  Duplicate tasks are computed once.
func (e *Engine) RunBatch(tasks ...Task) (*BatchResult, error) {
	return e.RunSpec(NewBatchSpec(tasks, 0))
}

// RunSpec executes a canonicalized batch on the engine's task path — the
// request-shaping codepath shared with the daemon (which runs the same specs
// through pooled query sessions).
func (e *Engine) RunSpec(spec BatchSpec) (*BatchResult, error) {
	if len(spec.tasks) == 0 {
		return &BatchResult{}, nil
	}
	ops, err := spec.ops()
	if err != nil {
		return nil, err
	}
	results, err := e.inner.RunOps(ops)
	if err != nil {
		return nil, err
	}
	return e.convertBatch(spec, results), nil
}

// convertBatch builds the public string-keyed BatchResult from the kernel's
// op results, slot by slot in the spec's canonical order: a keyed op's arrays
// become the one map of its field, nothing ID-keyed in between.
func (e *Engine) convertBatch(spec BatchSpec, results []any) *BatchResult {
	c := e.converter()
	out := &BatchResult{}
	for i, t := range spec.tasks {
		switch t {
		case TaskWordCount:
			out.WordCount = c.wordCounts(results[i].([]analytics.WordFreq))
		case TaskSort:
			out.Sort = c.termCounts(results[i].([]analytics.WordFreq))
		case TaskTermVectors:
			out.TermVectors = c.termVectors(results[i].([][]analytics.WordFreq))
		case TaskInvertedIndex:
			out.InvertedIndex = c.invertedIndex(results[i].(*analytics.Postings[uint32, uint32]))
		case TaskSequenceCount:
			out.SequenceCount = c.sequenceCounts(results[i].([]analytics.SeqFreq))
		case TaskRankedInvertedIndex:
			out.RankedInvertedIndex = c.rankedIndex(results[i].(*analytics.Postings[analytics.Seq, analytics.DocFreq]))
		}
	}
	return out
}

// converter resolves result IDs to strings against one snapshot of the
// vocabulary and one of the document names, taken after the run that
// produced the results: both tables only grow and IDs are stable, so a
// snapshot at or after the run's corpus cut covers every ID in it, and a
// conversion takes each table's lock once rather than per lookup.
type converter struct {
	words []string
	docs  []string
}

func (e *Engine) converter() *converter {
	return &converter{words: e.a.d.Words(), docs: e.docNames()}
}

func (c *converter) word(id uint32) string { return dict.WordIn(c.words, id) }

// seqKeyLen returns the length of q's key: its words joined by spaces.
func (c *converter) seqKeyLen(q analytics.Seq) int {
	n := len(q) - 1
	for _, id := range q {
		n += len(c.word(id))
	}
	return n
}

// seqKeyer returns the function joining the n sequences seq names into their
// string keys ("w0 w1 w2").  The keys are cut from one buffer sized for all of
// them up front: a result's ~10^5 keys cost one allocation instead of two
// each, and the buffer never regrows — a regrown buffer would stay pinned,
// whole, by the keys already cut from it.
func (c *converter) seqKeyer(n int, seq func(int) analytics.Seq) func(analytics.Seq) string {
	size := 0
	for i := 0; i < n; i++ {
		size += c.seqKeyLen(seq(i))
	}
	var buf strings.Builder
	buf.Grow(size)
	return func(q analytics.Seq) string {
		start := buf.Len()
		for i, id := range q {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(c.word(id))
		}
		return buf.String()[start:]
	}
}

// Conversions from the kernel's results to the public string-keyed forms.
// Sequences that join to one key (a word holding a space) collapse to the
// last of them in key order — the one the encoder keeps too.

func (c *converter) wordCounts(counts []analytics.WordFreq) map[string]uint64 {
	out := make(map[string]uint64, len(counts))
	for _, wf := range counts {
		out[c.word(wf.Word)] = wf.Freq
	}
	return out
}

func (c *converter) termCounts(wf []analytics.WordFreq) []TermCount {
	out := make([]TermCount, len(wf))
	for i, w := range wf {
		out[i] = TermCount{Term: c.word(w.Word), Count: w.Freq}
	}
	return out
}

func (c *converter) termVectors(tv [][]analytics.WordFreq) [][]TermCount {
	out := make([][]TermCount, len(tv))
	for i, vec := range tv {
		out[i] = c.termCounts(vec)
	}
	return out
}

// The posting lists of one result are cut, like the kernel's, from one array.

func (c *converter) invertedIndex(inv *analytics.Postings[uint32, uint32]) map[string][]string {
	out := make(map[string][]string, len(inv.Keys))
	names := analytics.Postings[uint32, string]{Ends: inv.Ends, Items: make([]string, len(inv.Items))}
	for i, doc := range inv.Items {
		names.Items[i] = c.docs[doc]
	}
	for i, id := range inv.Keys {
		out[c.word(id)] = names.List(i)
	}
	return out
}

func (c *converter) sequenceCounts(sc []analytics.SeqFreq) map[string]uint64 {
	out := make(map[string]uint64, len(sc))
	key := c.seqKeyer(len(sc), func(i int) analytics.Seq { return sc[i].Seq })
	for _, sf := range sc {
		out[key(sf.Seq)] = sf.Freq
	}
	return out
}

func (c *converter) rankedIndex(rii *analytics.Postings[analytics.Seq, analytics.DocFreq]) map[string][]DocCount {
	out := make(map[string][]DocCount, len(rii.Keys))
	key := c.seqKeyer(len(rii.Keys), func(i int) analytics.Seq { return rii.Keys[i] })
	rows := analytics.Postings[analytics.Seq, DocCount]{Ends: rii.Ends, Items: make([]DocCount, len(rii.Items))}
	for i, p := range rii.Items {
		rows.Items[i] = DocCount{Doc: c.docs[p.Doc], Count: p.Freq}
	}
	for i, q := range rii.Keys {
		out[key(q)] = rows.List(i)
	}
	return out
}
