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
// A sharded archive (CompressSharded) additionally keeps one grammar per
// shard plus the unified form — the shards rewritten against one shared rule
// table, which recovers the cross-shard redundancy independent builds
// re-learn; the whole-corpus grammar is the shard concatenation.  The shard
// boundary is whole documents, so every document lives in exactly one shard
// and sharded analytics merge to bit-identical results.
type Archive struct {
	g      *cfg.Grammar
	d      *dict.Dictionary
	shards []*cfg.Grammar // nil for an unsharded archive
	shared *cfg.SharedSet // unified form; nil for an unsharded archive

	// Online ingestion appends documents after compression.  The archive
	// tracks them separately from the base grammar so WriteTo can serialize
	// the base unchanged plus a compact delta grammar over just the appended
	// documents (the NTDCDLT1 container), mirroring how a live engine serves
	// base + delta without recompressing.
	deltaTokens [][]uint32 // appended documents' token streams, in append order
	deltaNames  []string   // appended documents' display names
}

// Compress builds an archive from documents.  Tokenization lowercases and
// strips surrounding punctuation (see CompressTokens for full control).
func Compress(docs []Document) (*Archive, error) {
	d := dict.New()
	var tk dict.Tokenizer
	tokens := make([][]uint32, len(docs))
	names := make([]string, len(docs))
	for i, doc := range docs {
		tokens[i] = tk.EncodeString(d, doc.Text)
		names[i] = doc.Name
	}
	return compress(tokens, names, d)
}

// CompressTokens builds an archive from pre-tokenized, dictionary-encoded
// documents.  Token IDs must be dense dictionary IDs from dct.
func CompressTokens(tokens [][]uint32, names []string, dct *Dictionary) (*Archive, error) {
	return compress(tokens, names, dct.d)
}

func compress(tokens [][]uint32, names []string, d *dict.Dictionary) (*Archive, error) {
	g, err := sequitur.Infer(tokens, uint32(d.Len()))
	if err != nil {
		return nil, fmt.Errorf("ntadoc: compress: %w", err)
	}
	g.Files = names
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Archive{g: g, d: d}, nil
}

// CompressSharded builds a K-way sharded archive: documents are partitioned
// into K contiguous shards of balanced token weight and each shard is
// compressed independently (in parallel), so engines can build and query the
// shards concurrently.  A cross-shard unification pass then rewrites the
// shard grammars against one shared rule table, recovering most of the
// compression that independent builds give up — the archive keeps both the
// unified form (what serializes) and the per-shard closures (what engines
// build from).  k = 1 (or a single document) degenerates to Compress.
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
		return compress(tokens, names, d)
	}
	sb, err := sequitur.InferShardsShared(tokens, uint32(d.Len()), k)
	if err != nil {
		return nil, fmt.Errorf("ntadoc: compress sharded: %w", err)
	}
	gs := sb.Shards
	if len(gs) == 1 {
		gs[0].Files = names
		if err := gs[0].Validate(); err != nil {
			return nil, err
		}
		return &Archive{g: gs[0], d: d}, nil
	}
	base := uint32(0)
	for si, g := range gs {
		if names != nil {
			sub := names[base : base+g.NumFiles]
			g.Files = sub
			sb.Set.Shards[si].Files = sub
		}
		base += g.NumFiles
	}
	merged, err := cfg.ConcatShards(gs)
	if err != nil {
		return nil, fmt.Errorf("ntadoc: compress sharded: %w", err)
	}
	return &Archive{g: merged, d: d, shards: gs, shared: sb.Set}, nil
}

// NumShards returns the archive's shard count (1 when unsharded).
func (a *Archive) NumShards() int {
	if a.shards == nil {
		return 1
	}
	return len(a.shards)
}

// AppendedDocuments returns how many documents have been appended to the
// archive since its base was compressed (and not yet folded into it).
func (a *Archive) AppendedDocuments() int { return len(a.deltaTokens) }

// recordAppend tracks appended documents so WriteTo can serialize them as a
// delta over the unchanged base.  Called by Engine.Append under its append
// lock; tokens are already interned in the archive's dictionary.
func (a *Archive) recordAppend(tokens [][]uint32, names []string) {
	a.deltaTokens = append(a.deltaTokens, tokens...)
	a.deltaNames = append(a.deltaNames, names...)
}

// fold folds pending appended documents into the whole-corpus grammar — an
// offline compaction.  The sharded forms are dropped when a delta folds:
// the folded corpus no longer matches the per-shard images, and recovering
// cross-shard redundancy requires recompressing.  No-op without a delta.
func (a *Archive) fold() error {
	if len(a.deltaTokens) == 0 {
		return nil
	}
	dg, err := sequitur.Infer(a.deltaTokens, uint32(a.d.Len()))
	if err != nil {
		return fmt.Errorf("ntadoc: fold delta: %w", err)
	}
	dg.Files = a.deltaNames
	if a.g.Files == nil {
		// MergeDelta synthesizes names for an unnamed base; pin the base's
		// default names so the folded corpus keeps DocumentNames stable.
		a.g.Files = a.DocumentNames()
	}
	merged, err := cfg.MergeDelta(a.g, dg)
	if err != nil {
		return fmt.Errorf("ntadoc: fold delta: %w", err)
	}
	a.g, a.shards, a.shared = merged, nil, nil
	a.deltaTokens, a.deltaNames = nil, nil
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
// grammar parser's buffering exactly.  A sharded archive's grammar section
// is the shared-table container (the unified form: one self-checksummed
// shared rule table plus a root per shard); an unsharded archive's is a
// single grammar, byte-compatible with earlier versions.
//
// An archive with appended documents serializes as a delta container: the
// base section byte-for-byte unchanged, plus a compact grammar inferred over
// just the appended documents — no recompression of the base.  ReadArchive
// folds the delta back in (an offline compaction), so a load/store cycle
// compacts the archive.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	var gbuf bytes.Buffer
	if len(a.deltaTokens) > 0 {
		var base bytes.Buffer
		if err := a.writeBaseSection(&base); err != nil {
			return 0, err
		}
		dg, err := sequitur.Infer(a.deltaTokens, uint32(a.d.Len()))
		if err != nil {
			return 0, fmt.Errorf("ntadoc: delta section: %w", err)
		}
		dg.Files = a.deltaNames
		if _, err := cfg.WriteDeltaContainer(&gbuf, base.Bytes(), dg); err != nil {
			return 0, err
		}
	} else if err := a.writeBaseSection(&gbuf); err != nil {
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

// writeBaseSection writes the base grammar section: the shared-table
// container of a sharded archive, or the single grammar.
func (a *Archive) writeBaseSection(w io.Writer) error {
	if a.shared != nil {
		_, err := cfg.WriteSharedSet(w, a.shared)
		return err
	}
	_, err := a.g.WriteTo(w)
	return err
}

// ReadArchive loads an archive written by WriteTo, validating both parts.
// The grammar section's leading magic selects between the single-grammar
// and shard-container formats.
func ReadArchive(r io.Reader) (*Archive, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ntadoc: archive header: %w", err)
	}
	gLen := int64(binary.LittleEndian.Uint64(hdr[:]))
	if gLen < 8 || gLen > 1<<40 {
		return nil, fmt.Errorf("ntadoc: absurd grammar section length %d", gLen)
	}
	// Peek the section magic to dispatch without disturbing the section
	// reader's byte accounting.
	var peek [8]byte
	if _, err := io.ReadFull(r, peek[:]); err != nil {
		return nil, fmt.Errorf("ntadoc: grammar section: %w", err)
	}
	section := io.MultiReader(bytes.NewReader(peek[:]), io.LimitReader(r, gLen-8))
	var (
		g      *cfg.Grammar
		shards []*cfg.Grammar
		shared *cfg.SharedSet
		err    error
	)
	if cfg.IsDeltaContainer(peek[:]) {
		// A delta archive: parse the embedded base section, then fold the
		// delta grammar into the whole-corpus form — an offline compaction.
		// The base's sharded forms are dropped: the folded corpus no longer
		// matches the per-shard images.
		baseBytes, delta, derr := cfg.ReadDeltaContainer(section)
		if derr != nil {
			return nil, derr
		}
		if len(baseBytes) < 8 {
			return nil, fmt.Errorf("ntadoc: delta container base section too short (%d bytes)", len(baseBytes))
		}
		g, _, _, err = readGrammarSection(baseBytes[:8], bytes.NewReader(baseBytes))
		if err != nil {
			return nil, err
		}
		if g, err = cfg.MergeDelta(g, delta); err != nil {
			return nil, err
		}
	} else if g, shards, shared, err = readGrammarSection(peek[:], section); err != nil {
		return nil, err
	}
	d := dict.New()
	if _, err := d.ReadFrom(r); err != nil {
		return nil, err
	}
	if uint32(d.Len()) < g.NumWords {
		return nil, fmt.Errorf("ntadoc: dictionary (%d words) smaller than grammar vocabulary (%d)", d.Len(), g.NumWords)
	}
	return &Archive{g: g, d: d, shards: shards, shared: shared}, nil
}

// readGrammarSection parses one grammar section, dispatching on its leading
// magic: shared-table container or single grammar.
// section must include the peeked bytes.
func readGrammarSection(peek []byte, section io.Reader) (g *cfg.Grammar, shards []*cfg.Grammar, shared *cfg.SharedSet, err error) {
	switch {
	case cfg.IsSharedContainer(peek):
		shared, err = cfg.ReadSharedSet(section)
		if err != nil {
			return nil, nil, nil, err
		}
		shards, err = shared.Materialize()
		if err != nil {
			return nil, nil, nil, err
		}
		if len(shards) == 1 {
			g, shards, shared = shards[0], nil, nil
		} else if g, err = cfg.ConcatShards(shards); err != nil {
			return nil, nil, nil, err
		}
	case cfg.IsLegacyShardContainer(peek):
		return nil, nil, nil, errors.New("ntadoc: archive written before the shared-table container; recompress")
	default:
		if g, err = cfg.ReadGrammar(section); err != nil {
			return nil, nil, nil, err
		}
	}
	return g, shards, shared, nil
}

// WriteDOT renders the archive's grammar DAG in Graphviz DOT format, with
// short rule bodies labelled using real words — the paper's Figure 1(e)
// view of the compressed data.
func (a *Archive) WriteDOT(w io.Writer) error {
	return a.g.WriteDOT(w, a.d)
}
