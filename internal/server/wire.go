// Package server is the query-serving layer over a loaded archive: it owns
// a pool of read-only query sessions with admission control, a coalescer
// that deduplicates identical in-flight batches, and an LRU cache of op
// results keyed by (archive generation, canonical batch signature), and
// exposes the analytics ops over a JSON HTTP API plus the operational
// surface (/metrics, /healthz, /debug/engine) the daemon ships with.
//
// The request-shaping codepath is shared with the one-shot CLI: both reduce
// a request to an ntadoc.BatchSpec, whose canonical Signature keys the
// coalescer and the cache.
package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/wire"
)

// Request is the body of /v1/query and /v1/batch: one task or several, plus
// the batch's only parameter.  GET requests carry the same fields as query
// parameters (?task=wordcount,sort&k=5).
type Request struct {
	// Task is the single-task convenience form; Tasks the batch form.
	// Both accept comma-separated lists and may be combined.
	Task  string   `json:"task,omitempty"`
	Tasks []string `json:"tasks,omitempty"`
	// TermVectorK truncates term vectors to this many entries (0 = default).
	TermVectorK int `json:"termvector_k,omitempty"`
}

// Spec canonicalizes the request — the same shaping the CLI's one-shot path
// uses, so "sort,wordcount" here and "wordcount,sort" there are one batch.
func (r Request) Spec() (ntadoc.BatchSpec, error) {
	var names []string
	for _, field := range append([]string{r.Task}, r.Tasks...) {
		for _, name := range strings.Split(field, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return ntadoc.BatchSpec{}, fmt.Errorf("no tasks requested")
	}
	return ntadoc.ParseBatchSpec(names, r.TermVectorK)
}

// DocTerms is one document's term vector with its name attached.
type DocTerms struct {
	Doc   string             `json:"doc"`
	Terms []ntadoc.TermCount `json:"terms"`
}

// Result is the wire form of a BatchResult as clients decode it: one field
// per task, populated for the tasks the batch requested.  The server never
// marshals it — EncodeResult and the serving path append the same bytes
// without reflection — but its tags are the format's definition: the tests
// hold both encoders to json.Marshal of this struct, byte for byte.  Map keys
// are emitted sorted, so identical results are identical bytes — the property
// the cache stores, the coalescer shares, and the e2e test asserts against
// direct library execution.
type Result struct {
	WordCount           map[string]uint64            `json:"wordcount,omitempty"`
	Sort                []ntadoc.TermCount           `json:"sort,omitempty"`
	TermVectors         []DocTerms                   `json:"termvector,omitempty"`
	InvertedIndex       map[string][]string          `json:"invertedindex,omitempty"`
	SequenceCount       map[string]uint64            `json:"seqcount,omitempty"`
	RankedInvertedIndex map[string][]ntadoc.DocCount `json:"rankedindex,omitempty"`
}

// BatchResult converts back to the library form plus the document names
// (empty strings where the daemon did not know them) — the client CLI's
// bridge to the shared result printers.
func (r Result) BatchResult() (*ntadoc.BatchResult, []string) {
	out := &ntadoc.BatchResult{
		WordCount:           r.WordCount,
		Sort:                r.Sort,
		InvertedIndex:       r.InvertedIndex,
		SequenceCount:       r.SequenceCount,
		RankedInvertedIndex: r.RankedInvertedIndex,
	}
	var docs []string
	if r.TermVectors != nil {
		out.TermVectors = make([][]ntadoc.TermCount, len(r.TermVectors))
		docs = make([]string, len(r.TermVectors))
		for i, dt := range r.TermVectors {
			out.TermVectors[i] = dt.Terms
			docs[i] = dt.Doc
		}
	}
	return out, docs
}

// EncodeResult encodes the wire result body that /v1 responses embed, the
// cache stores, and the e2e test byte-compares: the JSON of Result, naming
// each term vector's document from docs.  It is the string-keyed twin of
// QuerySession.RunSpecJSON, which the serving path uses; both append through
// internal/wire and neither reflects.  The error is always nil.
func EncodeResult(res *ntadoc.BatchResult, docs []string) ([]byte, error) {
	dst := []byte{'{'}
	dst = wire.AppendMapField(dst, "wordcount", res.WordCount, wire.AppendUint)
	if len(res.Sort) > 0 {
		dst = appendTerms(wire.AppendField(dst, "sort"), res.Sort)
	}
	dst = wire.AppendTermVectorsField(dst, "termvector", res.TermVectors, docs, appendTerms)
	dst = wire.AppendMapField(dst, "invertedindex", res.InvertedIndex, appendDocs)
	dst = wire.AppendMapField(dst, "seqcount", res.SequenceCount, wire.AppendUint)
	dst = wire.AppendMapField(dst, "rankedindex", res.RankedInvertedIndex, appendPostings)
	return append(dst, '}'), nil
}

// The list appenders write a nil slice as null and an empty one as [], the
// distinction encoding/json draws.

func appendTerms(dst []byte, terms []ntadoc.TermCount) []byte {
	if terms == nil {
		return append(dst, "null"...)
	}
	return wire.AppendArray(dst, terms, func(dst []byte, t ntadoc.TermCount) []byte {
		return wire.AppendCount(dst, "Term", t.Term, t.Count)
	})
}

func appendDocs(dst []byte, docs []string) []byte {
	if docs == nil {
		return append(dst, "null"...)
	}
	return wire.AppendArray(dst, docs, wire.AppendString)
}

func appendPostings(dst []byte, postings []ntadoc.DocCount) []byte {
	if postings == nil {
		return append(dst, "null"...)
	}
	return wire.AppendArray(dst, postings, func(dst []byte, p ntadoc.DocCount) []byte {
		return wire.AppendCount(dst, "Doc", p.Doc, p.Count)
	})
}

// AppendDocument is one document of an append batch on the wire.
type AppendDocument struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// AppendRequest is the body of POST /v1/append: one batch of documents,
// committed durably as a unit.
type AppendRequest struct {
	Documents []AppendDocument `json:"documents"`
}

// AppendResponse acknowledges a committed append batch.
type AppendResponse struct {
	// Appended is the number of documents the batch committed.
	Appended int `json:"appended"`
	// Epoch is the corpus epoch the batch became visible at.
	Epoch uint64 `json:"epoch"`
	// Generation is the cache generation after the commit.
	Generation string `json:"generation"`
}

// IngestInfo is the body of GET /v1/ingest: the live ingestion state the
// `ntadoc tail` follower polls.
type IngestInfo struct {
	Generation    string   `json:"generation"`
	Epoch         uint64   `json:"epoch"`
	Documents     int      `json:"documents"`
	Batches       uint64   `json:"batches"`
	AppendedDocs  uint64   `json:"appended_docs"`
	LogBytes      int64    `json:"log_bytes"`
	LogCapacity   int64    `json:"log_capacity"`
	DeltaDocs     int      `json:"delta_docs"`
	DeltaSymbols  int64    `json:"delta_symbols"`
	CompactedDocs uint64   `json:"compacted_docs"`
	Compactions   uint64   `json:"compactions"`
	LastDocuments []string `json:"last_documents,omitempty"`
}

// Response is the envelope of /v1/query and /v1/batch as clients decode it.
// The server frames it by hand around the stored body (writeResponse), in
// this field order with Result last; the golden-envelope test holds those
// bytes to json.Encoder's encoding of this struct.
type Response struct {
	// Generation is "<build tag>.<corpus epoch>": the archive build (its
	// build tag, 8 hex digits) and the corpus epoch the result was computed
	// against.  It changes on a committed append and on a compaction,
	// invalidating client-side caches along with the server's.
	Generation string `json:"generation"`
	// Signature is the canonical batch signature the request reduced to.
	Signature string `json:"signature"`
	// Cached reports a result served from the LRU cache; Coalesced one
	// shared with a concurrent identical request.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Result is the marshaled wire Result.
	Result json.RawMessage `json:"result"`
}
