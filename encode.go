package ntadoc

import (
	"context"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/wire"
)

// RunSpecJSON executes a canonicalized batch like RunSpec and returns the
// result in its wire encoding — the JSON object server.EncodeResult produces
// for RunSpec's BatchResult, byte for byte — encoded straight from the
// kernel's ID-keyed results: the string-keyed BatchResult is never built.
// This is the daemon's serving path.
func (s *QuerySession) RunSpecJSON(ctx context.Context, spec BatchSpec) ([]byte, error) {
	results, err := s.runOps(ctx, spec)
	if err != nil {
		return nil, err
	}
	return s.e.converter().appendJSON(nil, spec, results), nil
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
			dst = wire.AppendMapField(dst, name, results[i].(map[uint32]uint64), c.word, wire.AppendUint)
		case TaskSort:
			if sorted := results[i].([]analytics.WordFreq); len(sorted) > 0 {
				dst = c.appendTerms(wire.AppendField(dst, name), sorted)
			}
		case TaskTermVectors:
			dst = wire.AppendTermVectorsField(dst, name, results[i].([][]analytics.WordFreq), c.docs, c.appendTerms)
		case TaskInvertedIndex:
			dst = wire.AppendMapField(dst, name, results[i].(map[uint32][]uint32), c.word, c.appendDocNames)
		case TaskSequenceCount:
			counts := results[i].(map[analytics.Seq]uint64)
			dst = wire.AppendMapField(dst, name, counts, newSeqKeys(c, counts).key, wire.AppendUint)
		case TaskRankedInvertedIndex:
			ranked := results[i].(map[analytics.Seq][]analytics.DocFreq)
			dst = wire.AppendMapField(dst, name, ranked, newSeqKeys(c, ranked).key, c.appendPostings)
		}
	}
	return append(dst, '}')
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
