// Package analytics defines the six text-analytics tasks the paper
// benchmarks (word count, sort, term vector, inverted index, sequence count,
// ranked inverted index), their canonical result types, ground-truth
// reference implementations over raw token streams, and the grammar
// preprocessing shared by the compressed engines (per-rule word lists,
// n-gram counts, and the head/tail structures of §IV-D).
package analytics

import (
	"cmp"
	"fmt"
)

// Task identifies one of the paper's six benchmark tasks.
type Task int

// The benchmark tasks, in the paper's order.
const (
	TaskWordCount Task = iota
	TaskSort
	TaskTermVector
	TaskInvertedIndex
	TaskSequenceCount
	TaskRankedInvertedIndex
)

// Tasks lists all benchmark tasks in the paper's order.
var Tasks = []Task{TaskWordCount, TaskSort, TaskTermVector, TaskInvertedIndex, TaskSequenceCount, TaskRankedInvertedIndex}

// String returns the paper's name for the task.
func (t Task) String() string {
	switch t {
	case TaskWordCount:
		return "word count"
	case TaskSort:
		return "sort"
	case TaskTermVector:
		return "term vector"
	case TaskInvertedIndex:
		return "inverted index"
	case TaskSequenceCount:
		return "sequence count"
	case TaskRankedInvertedIndex:
		return "ranked inverted index"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// SeqLen is the n-gram length used by sequence count and ranked inverted
// index.  Three-word sequences follow the PUMA benchmark the paper adopts.
const SeqLen = 3

// Seq is one word sequence (n-gram).
type Seq [SeqLen]uint32

// CompareSeq orders sequences lexicographically — the canonical order used
// wherever Seq-keyed maps must be walked deterministically.
func CompareSeq(a, b Seq) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
}

// WordFreq is a word with its frequency; the element type of sort and term
// vector results.
type WordFreq struct {
	Word uint32
	Freq uint64
}

// DocFreq is a document with a frequency, the element of ranked-inverted-
// index postings.
type DocFreq struct {
	Doc  uint32
	Freq uint64
}
