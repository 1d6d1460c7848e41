package sequitur

import "github.com/text-analytics/ntadoc/internal/cfg"

// DeltaBuilder is the incremental inference mode behind online ingestion: a
// live Sequitur builder that extends a *delta grammar* one document at a
// time.  Sequitur is naturally online — appendSymbol restores both
// invariants after every token — and finish() is a read-only snapshot of the
// linked structure, so Grammar() can be taken after any append and the
// builder keeps growing afterwards.
//
// The delta grammar covers only the appended documents; the base grammar is
// untouched.  Reads merge the two (cfg.MergeDelta), and the snapshot is
// byte-identical to Infer over the appended documents alone, which is what
// makes crash recovery deterministic: replaying the durable append records
// through a fresh DeltaBuilder reconstructs the exact same grammar.
//
// A DeltaBuilder is not safe for concurrent use; callers serialize appends
// (the engine's ingest mutex).
type DeltaBuilder struct {
	b        *builder
	numWords uint32
}

// NewDeltaBuilder returns an empty delta builder over a numWords-word
// vocabulary.  It never fails, and base is not read: the delta grammar
// depends on the appended documents alone.  Both stay for existing callers.
func NewDeltaBuilder(numWords uint32, base *cfg.Grammar) (*DeltaBuilder, error) {
	return &DeltaBuilder{b: newBuilder(), numWords: numWords}, nil
}

// AppendDoc extends the delta grammar with one document.  numWords is the
// vocabulary size after interning the document (vocabularies only grow, so
// the builder keeps the maximum).  The document's tokens must be below it;
// a refused document leaves the delta grammar as it was.
func (db *DeltaBuilder) AppendDoc(tokens []uint32, numWords uint32) error {
	db.numWords = max(db.numWords, numWords)
	return db.b.appendFile(tokens, db.numWords)
}

// Docs returns the number of appended documents.
func (db *DeltaBuilder) Docs() uint32 { return db.b.files }

// Grammar snapshots the delta grammar covering every document appended so
// far, or nil when nothing has been appended.  The builder remains live.
func (db *DeltaBuilder) Grammar() *cfg.Grammar {
	if db.b.files == 0 {
		return nil
	}
	return db.b.finish(db.numWords)
}
