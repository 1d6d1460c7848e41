package sequitur

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

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
	numFiles uint32
	numWords uint32
}

// NewDeltaBuilder returns an empty delta builder over a numWords-word
// vocabulary.  It never fails, and base is not read: the delta grammar
// depends on the appended documents alone.  Both stay for existing callers.
func NewDeltaBuilder(numWords uint32, base *cfg.Grammar) (*DeltaBuilder, error) {
	db := &DeltaBuilder{
		b: &builder{
			digrams: newDigramTable(),
			root:    newRule(),
			rules:   make(map[*rule]struct{}),
		},
		numWords: numWords,
	}
	db.b.root.id = -1
	return db, nil
}

// AppendDoc extends the delta grammar with one document.  numWords is the
// vocabulary size after interning the document (vocabularies only grow, so
// the builder keeps the maximum).  The document's tokens must be below it.
func (db *DeltaBuilder) AppendDoc(tokens []uint32, numWords uint32) error {
	if numWords > db.numWords {
		db.numWords = numWords
	}
	if uint64(db.numFiles)+1 >= cfg.MaxWords {
		return fmt.Errorf("sequitur: too many appended files (%d)", db.numFiles)
	}
	for _, id := range tokens {
		if id >= db.numWords {
			return fmt.Errorf("sequitur: token %d beyond vocabulary %d", id, db.numWords)
		}
		db.b.appendSymbol(cfg.Word(id))
	}
	db.b.appendSymbol(cfg.Sep(db.numFiles))
	db.numFiles++
	return nil
}

// Docs returns the number of appended documents.
func (db *DeltaBuilder) Docs() uint32 { return db.numFiles }

// Grammar snapshots the delta grammar covering every document appended so
// far, or nil when nothing has been appended.  The builder remains live.
func (db *DeltaBuilder) Grammar() *cfg.Grammar {
	if db.numFiles == 0 {
		return nil
	}
	return db.b.finish(db.numFiles, db.numWords)
}
