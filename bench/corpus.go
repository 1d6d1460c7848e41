package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// corpus is one generated input: token files, the vocabulary in ID order,
// and document names.
type corpus struct {
	Spec  datagen.Spec
	Files [][]uint32
	Words []string
	Names []string
}

// makeCorpus generates the dataset analogue for a benchmark seed.  The
// generator draws each file's length within ±50% of the mean, so a
// one-file corpus would vary threefold in size from seed to seed and every
// timing with it.  To keep seeds comparable the corpus is generated at twice
// the size and every file is cut back by the same factor, so the total is
// exactly Files×TokensPer tokens while the relative file sizes stay as
// generated.
func makeCorpus(spec datagen.Spec, seed int64) *corpus {
	spec.Seed ^= seed
	target := spec.TotalTokens()
	gen := spec
	gen.TokensPer *= 2
	files, d := gen.GenerateWithDict()
	var total int64
	for _, f := range files {
		total += int64(len(f))
	}
	var kept int64
	full := make([]int, len(files))
	for i, f := range files {
		full[i] = len(f)
		n := int64(len(f)) * target / total
		files[i] = f[:n]
		kept += n
	}
	// Integer division leaves a few tokens over; give them back in file order.
	for i := 0; kept < target; i = (i + 1) % len(files) {
		if n := len(files[i]); n < full[i] {
			files[i] = files[i][:n+1]
			kept++
		}
	}
	names := make([]string, len(files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%05d", i)
	}
	return &corpus{Spec: spec, Files: files, Words: d.Words(), Names: names}
}

// tokens returns the total token count of files [lo, hi).
func (c *corpus) tokens(lo, hi int) int64 {
	var n int64
	for _, f := range c.Files[lo:hi] {
		n += int64(len(f))
	}
	return n
}

// dictionary builds a public-API dictionary with the corpus's words in ID
// order, so the token files' IDs are its dense IDs.
func (c *corpus) dictionary() *ntadoc.Dictionary {
	d := ntadoc.NewDictionary()
	for _, w := range c.Words {
		d.Intern(w)
	}
	return d
}

// text renders document i back to text; tokenizing it yields the same
// tokens (words are lowercase alphanumerics joined by single spaces).
func (c *corpus) text(i int) string {
	ws := make([]string, len(c.Files[i]))
	for j, id := range c.Files[i] {
		ws[j] = c.Words[id]
	}
	return strings.Join(ws, " ")
}

// documents renders files [lo, hi) as public-API documents.
func (c *corpus) documents(lo, hi int) []ntadoc.Document {
	docs := make([]ntadoc.Document, 0, hi-lo)
	for i := lo; i < hi; i++ {
		docs = append(docs, ntadoc.Document{Name: c.Names[i], Text: c.text(i)})
	}
	return docs
}

// makeStream returns n indices into a mix of mixLen requests: seeded
// permutations of the mix laid end to end, so every cycle of mixLen requests
// holds each request once and the order is a function of the seed alone.
func makeStream(seed int64, mixLen, n int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+mixLen)
	for len(out) < n {
		out = append(out, r.Perm(mixLen)...)
	}
	return out[:n]
}

// taskCSV is the ?task= value of a spec.
func taskCSV(spec ntadoc.BatchSpec) string {
	tasks := spec.Tasks()
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.String()
	}
	return strings.Join(names, ",")
}

// taskLabel is the per-layer metric suffix of a spec: the task name for a
// single-task spec, "fused" for a batch.
func taskLabel(spec ntadoc.BatchSpec) string {
	if tasks := spec.Tasks(); len(tasks) == 1 {
		return tasks[0].String()
	}
	return "fused"
}
