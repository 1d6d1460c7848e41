// Package ntadoc is a Go implementation of N-TADOC — NVM-based text
// analytics directly on compressed data (Fang et al., ICDE 2024) — together
// with the TADOC compression core it builds on.
//
// The package compresses document collections into a context-free grammar
// (Sequitur with dictionary encoding) and runs text analytics on the
// compressed form without decompression: word count, sort, term vector,
// inverted index, sequence count, and ranked inverted index.  Analytics run
// on a simulated non-volatile-memory device with faithful persistence
// semantics (crash + recovery), using the paper's designs: pruning with NVM
// pool management, bottom-up upper-bound summation, NVM-adapted data
// structures, and phase- or operation-level persistence.
//
// Quick start:
//
//	archive, _ := ntadoc.Compress([]ntadoc.Document{
//		{Name: "a.txt", Text: "the quick brown fox ..."},
//	})
//	eng, _ := ntadoc.NewEngine(archive, ntadoc.Options{})
//	defer eng.Close()
//	counts, _ := eng.WordCount()
package ntadoc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// Document is one input text with its name.
type Document struct {
	Name string
	Text string
}

// Archive is a compressed document collection: the TADOC grammar plus its
// dictionary.  Archives serialize with WriteTo and load with ReadArchive.
//
// Every archive is a shard set, K = 1 included: the unified form — the
// shards' rules in one shared table, a root per shard — is what serializes
// and what the build tag fingerprints, and engines build from the per-shard
// grammars materialized from it.  At K > 1 the shared table recovers the
// cross-shard redundancy independent builds re-learn; at K = 1 it is the
// grammar's own rules.  The shard boundary is whole documents, so every
// document lives in exactly one shard and sharded analytics merge to
// bit-identical results.
type Archive struct {
	g      *cfg.Grammar // whole-corpus view: the shard concatenation
	d      *dict.Dictionary
	shared *cfg.SharedSet // unified form: what serializes
	tag    uint32         // shared.Checksum(): the build tag engines stamp
	shards []*cfg.Grammar // shared, materialized per shard: what engines build from

	// Online ingestion appends documents after compression.  The archive
	// tracks them beside the base grammar, as a live engine serves base +
	// delta without recompressing, until NewEngine folds them in or WriteTo
	// writes them folded.
	deltaTokens [][]uint32 // appended documents' token streams, in append order
	deltaNames  []string   // appended documents' display names
}

// Compress builds an archive from documents.  Tokenization lowercases and
// strips surrounding punctuation (see CompressTokens for full control).
func Compress(docs []Document) (*Archive, error) {
	return CompressSharded(docs, 1)
}

// CompressTokens builds an archive from pre-tokenized, dictionary-encoded
// documents.  Token IDs must be dense dictionary IDs from dct.
func CompressTokens(tokens [][]uint32, names []string, dct *Dictionary) (*Archive, error) {
	return compressSharded(tokens, names, dct.d, 1)
}

// CompressSharded builds a K-way sharded archive: documents are partitioned
// into K contiguous shards of balanced token weight and each shard is
// compressed independently (in parallel), so engines can build and query the
// shards concurrently.  A cross-shard unification pass then rewrites the
// shard grammars against one shared rule table, recovering most of the
// compression that independent builds give up.  k = 1 compresses the corpus
// into one grammar and wraps it as a one-shard set, without the pass.
func CompressSharded(docs []Document, k int) (*Archive, error) {
	d := dict.New()
	var tk dict.Tokenizer
	tokens := make([][]uint32, len(docs))
	names := make([]string, len(docs))
	for i, doc := range docs {
		tokens[i] = tk.EncodeString(d, doc.Text)
		names[i] = doc.Name
	}
	return compressSharded(tokens, names, d, k)
}

// CompressTokensSharded is CompressSharded over pre-tokenized documents.
func CompressTokensSharded(tokens [][]uint32, names []string, dct *Dictionary, k int) (*Archive, error) {
	return compressSharded(tokens, names, dct.d, k)
}

func compressSharded(tokens [][]uint32, names []string, d *dict.Dictionary, k int) (*Archive, error) {
	if k <= 1 {
		g, err := sequitur.Infer(tokens, uint32(d.Len()))
		if err != nil {
			return nil, fmt.Errorf("ntadoc: compress: %w", err)
		}
		g.Files = names
		return singleShard(g, d)
	}
	sb, err := sequitur.InferShardsShared(tokens, uint32(d.Len()), k)
	if err != nil {
		return nil, fmt.Errorf("ntadoc: compress sharded: %w", err)
	}
	base := uint32(0)
	for si, g := range sb.Shards {
		if names != nil {
			sub := names[base : base+g.NumFiles]
			g.Files = sub
			sb.Set.Shards[si].Files = sub
		}
		base += g.NumFiles
	}
	return newArchive(sb.Set, sb.Set.Checksum(), sb.Shards, d)
}

// singleShard makes g a one-shard archive.
func singleShard(g *cfg.Grammar, d *dict.Dictionary) (*Archive, error) {
	set, err := cfg.SingleShard(g)
	if err != nil {
		return nil, err
	}
	shards, err := set.Materialize()
	if err != nil {
		return nil, err
	}
	return newArchive(set, set.Checksum(), shards, d)
}

// newArchive assembles an archive from its unified form, that form's
// checksum, and the per-shard grammars materialized from it.
func newArchive(set *cfg.SharedSet, tag uint32, shards []*cfg.Grammar, d *dict.Dictionary) (*Archive, error) {
	g, err := cfg.ConcatShards(shards)
	if err != nil {
		return nil, err
	}
	return &Archive{g: g, d: d, shared: set, tag: tag, shards: shards}, nil
}

// NumShards returns the archive's shard count.
func (a *Archive) NumShards() int { return len(a.shards) }

// AppendedDocuments returns how many documents have been appended to the
// archive since its base was compressed (and not yet folded into it).
func (a *Archive) AppendedDocuments() int { return len(a.deltaTokens) }

// recordAppend tracks appended documents until they are folded into the
// base.  Called by Engine.Append under its append lock; tokens are already
// interned in the archive's dictionary.
func (a *Archive) recordAppend(tokens [][]uint32, names []string) {
	a.deltaTokens = append(a.deltaTokens, tokens...)
	a.deltaNames = append(a.deltaNames, names...)
}

// fold folds pending appended documents into the whole-corpus grammar — an
// offline compaction — and wraps the result as a one-shard set.  The folded
// corpus no longer matches the per-shard images, and recovering cross-shard
// redundancy requires recompressing.  No-op without a delta.  Only *a is
// replaced: the grammars it pointed to are left as they were, so folding a
// copy of an archive leaves the archive itself untouched.
func (a *Archive) fold() error {
	if len(a.deltaTokens) == 0 {
		return nil
	}
	dg, err := sequitur.Infer(a.deltaTokens, uint32(a.d.Len()))
	if err != nil {
		return fmt.Errorf("ntadoc: fold delta: %w", err)
	}
	dg.Files = a.deltaNames
	base := a.g
	if base.Files == nil {
		// MergeDelta synthesizes names for an unnamed base; pin the base's
		// default names so the folded corpus keeps DocumentNames stable.
		named := *base
		named.Files = a.DocumentNames()
		base = &named
	}
	merged, err := cfg.MergeDelta(base, dg)
	if err != nil {
		return fmt.Errorf("ntadoc: fold delta: %w", err)
	}
	folded, err := singleShard(merged, a.d)
	if err != nil {
		return fmt.Errorf("ntadoc: fold delta: %w", err)
	}
	*a = *folded
	return nil
}

// Dictionary wraps the word <-> ID mapping for use with CompressTokens.
type Dictionary struct{ d *dict.Dictionary }

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary { return &Dictionary{d: dict.New()} }

// Intern returns the ID for word, assigning one on first use.
func (dc *Dictionary) Intern(word string) uint32 { return dc.d.Intern(word) }

// Len returns the vocabulary size.
func (dc *Dictionary) Len() int { return dc.d.Len() }

// Stats summarizes an archive.
type Stats struct {
	Documents       int
	Rules           int
	Vocabulary      int
	Tokens          int64 // uncompressed length in tokens
	GrammarSymbols  int64 // compressed length in grammar symbols
	CompressionRate float64
}

// Stats returns summary statistics of the archive.
func (a *Archive) Stats() Stats {
	st := a.g.ComputeStats()
	rate := 0.0
	if st.Expanded > 0 {
		rate = float64(st.BodySymbols) / float64(st.Expanded)
	}
	return Stats{
		Documents:       st.Files,
		Rules:           st.Rules,
		Vocabulary:      st.Vocabulary,
		Tokens:          st.Expanded,
		GrammarSymbols:  st.BodySymbols,
		CompressionRate: rate,
	}
}

// DocumentNames returns the archived document names in order.
func (a *Archive) DocumentNames() []string {
	if a.g.Files != nil {
		return a.g.Files
	}
	names := make([]string, a.g.NumFiles)
	for i := range names {
		names[i] = fmt.Sprintf("doc%d", i)
	}
	return names
}

// Decompress reconstructs the original documents (tokens re-joined with
// single spaces; tokenization is lossy about whitespace and punctuation by
// design, as in the paper's dictionary conversion).
func (a *Archive) Decompress() []Document {
	names := a.DocumentNames()
	files := a.g.ExpandFiles()
	docs := make([]Document, len(files))
	for i, toks := range files {
		words := make([]string, len(toks))
		for j, id := range toks {
			words[j] = a.d.Word(id)
		}
		docs[i] = Document{Name: names[i], Text: strings.Join(words, " ")}
	}
	return docs
}

// WriteTo serializes the archive: a length-prefixed grammar section
// followed by the dictionary.  The length prefix lets the reader bound the
// grammar parser's buffering exactly.  The grammar section is the
// shared-table container at every shard count: the unified form, one
// self-checksummed shared rule table plus a root per shard.
//
// An archive with appended documents is written folded, as the one-shard set
// NewEngine would build from: the fold runs on a copy, so the archive itself
// keeps its base and its pending appends.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	folded := *a
	if err := folded.fold(); err != nil {
		return 0, err
	}
	var gbuf bytes.Buffer
	if _, err := cfg.WriteSharedSet(&gbuf, folded.shared); err != nil {
		return 0, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(gbuf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := io.Copy(w, &gbuf)
	n += 8
	if err != nil {
		return n, err
	}
	m, err := a.d.WriteTo(w)
	return n + m, err
}

// ReadArchive loads an archive written by WriteTo, validating both parts.
// The grammar section is the shared-table container ("NTDCSHD2").  The
// sections of retired formats — the per-shard container ("NTDCSHD1"), the
// delta container ("NTDCDLT1") and a bare grammar ("NTDCCFG1") — are refused
// by name, so that an old archive is told apart from a corrupt one.
func ReadArchive(r io.Reader) (*Archive, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ntadoc: archive header: %w", err)
	}
	gLen := binary.LittleEndian.Uint64(hdr[:])
	if gLen < 8 || gLen > 1<<40 {
		return nil, fmt.Errorf("ntadoc: absurd grammar section length %d", gLen)
	}
	var section bytes.Buffer
	section.Grow(int(min(gLen, sectionPrealloc)))
	n, err := section.ReadFrom(io.LimitReader(r, int64(gLen)))
	if err != nil {
		return nil, fmt.Errorf("ntadoc: grammar section: %w", err)
	}
	if uint64(n) != gLen {
		return nil, fmt.Errorf("ntadoc: grammar section: %d of %d bytes: %w", n, gLen, io.ErrUnexpectedEOF)
	}
	b := section.Bytes()
	switch string(b[:8]) {
	case "NTDCSHD1", "NTDCDLT1", "NTDCCFG1":
		return nil, errors.New("ntadoc: archive written before the shared-table container; recompress")
	}
	set, tag, err := cfg.ReadSharedSet(b)
	if err != nil {
		return nil, err
	}
	shards, err := set.Materialize()
	if err != nil {
		return nil, err
	}
	a, err := newArchive(set, tag, shards, dict.New())
	if err != nil {
		return nil, err
	}
	if _, err := a.d.ReadFrom(r); err != nil {
		return nil, err
	}
	if uint32(a.d.Len()) < a.g.NumWords {
		return nil, fmt.Errorf("ntadoc: dictionary (%d words) smaller than grammar vocabulary (%d)", a.d.Len(), a.g.NumWords)
	}
	return a, nil
}

// sectionPrealloc caps the buffer ReadArchive reserves for a grammar section
// before its bytes arrive: the declared length is untrusted, so past this the
// buffer grows only as bytes do.
const sectionPrealloc = 1 << 20

// WriteDOT renders the archive's grammar DAG in Graphviz DOT format, with
// short rule bodies labelled using real words — the paper's Figure 1(e)
// view of the compressed data.
func (a *Archive) WriteDOT(w io.Writer) error {
	return a.g.WriteDOT(w, a.d)
}
