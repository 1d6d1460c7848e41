package ntadoc

import (
	"context"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/wire"
)

// RunSpecJSON executes a canonicalized batch like RunSpec and returns the
// result in its wire encoding — the JSON object server.EncodeResult produces
// for RunSpec's BatchResult, byte for byte — streamed from the kernel's
// result arrays, which arrive in the order of the body's keys, into a buffer
// sized once for the whole body: no BatchResult is built and no key sorted.
// This is the daemon's serving path.
func (s *QuerySession) RunSpecJSON(ctx context.Context, spec BatchSpec) ([]byte, error) {
	results, err := s.runOps(ctx, spec)
	if err != nil {
		return nil, err
	}
	c := s.e.converter()
	return c.appendJSON(make([]byte, 0, c.jsonSize(spec, results)), spec, results), nil
}

// appendJSON appends the wire object of a batch's results: one field per
// requested task, named by the task, in the spec's canonical order; a task
// with an empty result is left out, as `omitempty` leaves it out of
// server.Result.  Posting lists and term vectors are never null here — the
// kernel's empty lists convert to empty, not nil, slices.
func (c *converter) appendJSON(dst []byte, spec BatchSpec, results []any) []byte {
	dst = append(dst, '{')
	for i, t := range spec.tasks {
		name := t.String()
		switch t {
		case TaskWordCount:
			counts := results[i].([]analytics.WordFreq)
			dst = appendObject(dst, name, len(counts), func(dst []byte, j int) []byte {
				return wire.AppendUint(wire.AppendKey(dst, c.word(counts[j].Word)), counts[j].Freq)
			})
		case TaskSort:
			if sorted := results[i].([]analytics.WordFreq); len(sorted) > 0 {
				dst = c.appendTerms(wire.AppendField(dst, name), sorted)
			}
		case TaskTermVectors:
			dst = wire.AppendTermVectorsField(dst, name, results[i].([][]analytics.WordFreq), c.docs, c.appendTerms)
		case TaskInvertedIndex:
			inv := results[i].(*analytics.Postings[uint32, uint32])
			dst = appendObject(dst, name, len(inv.Keys), func(dst []byte, j int) []byte {
				return c.appendDocNames(wire.AppendKey(dst, c.word(inv.Keys[j])), inv.List(j))
			})
		case TaskSequenceCount:
			counts := results[i].([]analytics.SeqFreq)
			dst = appendObject(dst, name, len(counts), func(dst []byte, j int) []byte {
				if j+1 < len(counts) && c.sameKey(counts[j].Seq, counts[j+1].Seq) {
					return dst
				}
				return wire.AppendUint(c.appendSeqKey(dst, counts[j].Seq), counts[j].Freq)
			})
		case TaskRankedInvertedIndex:
			ranked := results[i].(*analytics.Postings[analytics.Seq, analytics.DocFreq])
			dst = appendObject(dst, name, len(ranked.Keys), func(dst []byte, j int) []byte {
				if j+1 < len(ranked.Keys) && c.sameKey(ranked.Keys[j], ranked.Keys[j+1]) {
					return dst
				}
				return c.appendPostings(c.appendSeqKey(dst, ranked.Keys[j]), ranked.List(j))
			})
		}
	}
	return append(dst, '}')
}

// appendObject appends an object of n entries as the next field of the
// object being written into dst, entry i — its key, opened by wire.AppendKey
// or AppendJoinedKey, then its value — appended by entry, in the results' own
// order: wire order (analytics.KeyOrder).  No entries is `omitempty`.
func appendObject(dst []byte, name string, n int, entry func(dst []byte, i int) []byte) []byte {
	if n == 0 {
		return dst
	}
	dst = append(wire.AppendField(dst, name), '{')
	for i := 0; i < n; i++ {
		dst = entry(dst, i)
	}
	return append(dst, '}')
}

// sameKey reports whether two sequences, neighbours in wire order, join to
// one key (a word holding a space can make them): an object keeps one entry
// per key, the last — the one a map built in that order keeps.
func (c *converter) sameKey(a, b analytics.Seq) bool {
	return analytics.CompareWireKeys(c.words, a, b) == 0
}

func (c *converter) appendSeqKey(dst []byte, q analytics.Seq) []byte {
	var words [analytics.SeqLen]string
	for i, id := range q {
		words[i] = c.word(id)
	}
	return wire.AppendJoinedKey(dst, words[:])
}

func (c *converter) appendTerms(dst []byte, vec []analytics.WordFreq) []byte {
	return wire.AppendArray(dst, vec, func(dst []byte, w analytics.WordFreq) []byte {
		return wire.AppendCount(dst, "Term", c.word(w.Word), w.Freq)
	})
}

func (c *converter) appendDocNames(dst []byte, docs []uint32) []byte {
	return wire.AppendArray(dst, docs, func(dst []byte, doc uint32) []byte {
		return wire.AppendString(dst, c.docs[doc])
	})
}

func (c *converter) appendPostings(dst []byte, postings []analytics.DocFreq) []byte {
	return wire.AppendArray(dst, postings, func(dst []byte, p analytics.DocFreq) []byte {
		return wire.AppendCount(dst, "Doc", c.docs[p.Doc], p.Freq)
	})
}

// jsonSize returns the length of the body appendJSON writes for results,
// from string lengths and digit counts alone: exact when no string needs an
// escape (the body is longer then, and append grows the buffer as it would
// any other) and no two sequences share a key (shorter).
func (c *converter) jsonSize(spec BatchSpec, results []any) int {
	// list sizes an array or object of n elements totalling body bytes, count
	// wire.AppendCount's object under a field name of f bytes.
	list := func(n, body int) int { return 1 + body + max(n, 1) }
	count := func(f int, name string, n uint64) int { return f + len(name) + digits(n) + 16 }
	terms := func(vec []analytics.WordFreq) (body int) {
		for _, w := range vec {
			body += count(4, c.word(w.Word), w.Freq)
		}
		return body
	}
	size, fields := 2, 0
	for i, t := range spec.tasks {
		n, body := 0, 0 // the field's elements, and their bytes
		switch r := results[i].(type) {
		case []analytics.WordFreq:
			if n, body = len(r), terms(r); t == TaskWordCount {
				body -= n * (count(4, "", 0) - len(`"":0`))
			}
		case [][]analytics.WordFreq:
			n = len(r)
			for doc, vec := range r {
				body += len(`{"doc":"","terms":}`) + list(len(vec), terms(vec))
				if doc < len(c.docs) {
					body += len(c.docs[doc])
				}
			}
		case *analytics.Postings[uint32, uint32]:
			n = len(r.Keys)
			for _, w := range r.Keys {
				body += len(c.word(w)) + len(`"":[`)
			}
			for _, doc := range r.Items {
				body += len(c.docs[doc]) + len(`"",`)
			}
		case []analytics.SeqFreq:
			n = len(r)
			for _, sf := range r {
				body += c.seqKeyLen(sf.Seq) + len(`"":`) + digits(sf.Freq)
			}
		case *analytics.Postings[analytics.Seq, analytics.DocFreq]:
			n = len(r.Keys)
			for _, q := range r.Keys {
				body += c.seqKeyLen(q) + len(`"":[`)
			}
			for _, p := range r.Items {
				body += count(3, c.docs[p.Doc], p.Freq) + 1
			}
		}
		if n > 0 {
			size += len(t.String()) + len(`"":,`) + list(n, body)
			fields++
		}
	}
	return size - min(fields, 1) // the first field has no comma
}

// digits returns the length of v in decimal.
func digits(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}
