// Ngram: mine frequent three-word sequences from a document collection
// directly on the compressed archive, then build a ranked inverted index
// over them — the paper's two sequence-analytics benchmarks, exercised
// through the head/tail structures of §IV-D.  The pool is file-backed, and
// after a simulated restart a second engine rebuilds over the same file from
// the archive (NewEngine formats the pool; it does not reopen it) and
// reproduces the results.
//
//	go run ./examples/ngram
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/text-analytics/ntadoc"
)

// corpus: verses with heavy repeated phrasing, the structure n-gram mining
// feeds on.
var verses = []ntadoc.Document{
	{Name: "verse1", Text: strings.Repeat("row row row your boat gently down the stream ", 8) +
		"merrily merrily merrily merrily life is but a dream"},
	{Name: "verse2", Text: strings.Repeat("the wheels on the bus go round and round ", 6) +
		"round and round all through the town"},
	{Name: "verse3", Text: strings.Repeat("if you are happy and you know it clap your hands ", 5) +
		"and you really want to show it clap your hands"},
	{Name: "verse4", Text: "down by the stream the wheels go round and round " +
		strings.Repeat("gently down the stream ", 4)},
}

func main() {
	archive, err := ntadoc.Compress(verses)
	if err != nil {
		log.Fatal(err)
	}
	st := archive.Stats()
	fmt.Printf("compressed %d verses: %d tokens -> %d symbols (%.1f%%)\n\n",
		st.Documents, st.Tokens, st.GrammarSymbols, st.CompressionRate*100)

	poolPath := filepath.Join(os.TempDir(), "ngram-pool.nvm")
	defer os.Remove(poolPath)

	eng, err := ntadoc.NewEngine(archive, ntadoc.Options{PoolPath: poolPath})
	if err != nil {
		log.Fatal(err)
	}

	// Sequence count: global n-gram frequencies, computed by weighting each
	// grammar rule's local windows — no rule is ever expanded.
	seqs, err := eng.SequenceCount()
	if err != nil {
		log.Fatal(err)
	}
	type sc struct {
		seq string
		n   uint64
	}
	ranked := make([]sc, 0, len(seqs))
	for q, n := range seqs {
		ranked = append(ranked, sc{q, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].seq < ranked[j].seq
	})
	fmt.Println("most frequent three-word sequences:")
	for _, r := range ranked[:8] {
		fmt.Printf("  %3d  %q\n", r.n, r.seq)
	}

	// Ranked inverted index: which verse uses each sequence most?
	rii, err := eng.RankedInvertedIndex()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranked postings for shared sequences:")
	for _, probe := range []string{"down the stream", "round and round", "clap your hands"} {
		postings := rii[probe]
		fmt.Printf("  %-18q ->", probe)
		for _, p := range postings {
			fmt.Printf(" %s(%d)", p.Doc, p.Count)
		}
		fmt.Println()
	}

	// A restart: close the engine, then build a second one over the same
	// pool file.  NewEngine rebuilds the pool from the archive, not reopens it.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	eng2, err := ntadoc.NewEngine(archive, ntadoc.Options{PoolPath: poolPath})
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	again, err := eng2.SequenceCount()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter rebuilding over the same pool file: %d sequences, "+
		"'down the stream' x%d (results reproducible across restarts)\n",
		len(again), again["down the stream"])
}
