package core

import (
	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// Sequence analytics over pool-resident data.  Initialization stored, per
// rule: an n-gram table (sequence ID -> count within one expansion) and a
// 32-byte head/tail edge record (§IV-D).  The traversal phase combines them
// along the ordered root body without expanding any rule: a segment's count
// is the sum of its rules' internal counts plus the boundary-spanning
// windows reconstructed from edge records.  The walks here are kernel
// building blocks; the sequence tasks themselves are analytics.Op folds
// driven by runPlan (kernel.go).

// edgeInfo is one rule's edge record read from the pool.
type edgeInfo struct {
	length int64
	split  bool
	tokens []uint32
}

// readEdge fetches rule r's edge record — token count, tokens, length,
// flags: one batch.  The returned token slice is scratch, valid only until
// the next readEdge call.
func (x *exec) readEdge(r uint32) edgeInfo {
	rec := x.e.edgesAcc.Slice(int64(r)*edgeSize, edgeSize)
	b := rec.BeginReads()
	n := int(b.Byte(rec, edgeCount))
	x.ws.edgeToks = fit(x.ws.edgeToks, n)
	toks := x.ws.edgeToks
	b.Uint32s(rec, edgeTokens, toks)
	length := int64(b.Uint64(rec, edgeLen))
	split := b.Byte(rec, edgeFlags)&1 != 0
	b.End()
	return edgeInfo{length: length, split: split, tokens: toks}
}

// poolStreamToken mirrors analytics.streamToken for pool-sourced edges.
type poolStreamToken struct {
	tok      uint32
	sym      int
	gapAfter bool
}

// spanningWindowsPool walks a symbol sequence and emits every boundary-
// spanning window, reading per-rule edges from the pool.  Separators are
// hard breaks.  This mirrors analytics.addSpanningWindows, sourcing from
// NVM instead of DRAM summaries.
func (x *exec) spanningWindowsPool(syms []cfg.Symbol, emit func(analytics.Seq)) {
	stream := x.ws.stream[:0]
	flush := func() {
		for i := 0; i+analytics.SeqLen <= len(stream); i++ {
			valid := true
			for j := 0; j < analytics.SeqLen-1; j++ {
				if stream[i+j].gapAfter {
					valid = false
					break
				}
			}
			if !valid || stream[i].sym == stream[i+analytics.SeqLen-1].sym {
				continue
			}
			var q analytics.Seq
			for j := 0; j < analytics.SeqLen; j++ {
				q[j] = stream[i+j].tok
			}
			emit(q)
		}
		stream = stream[:0]
	}
	for idx, s := range syms {
		switch {
		case s.IsSep():
			flush()
		case s.IsWord():
			stream = append(stream, poolStreamToken{tok: s.WordID(), sym: idx})
		case s.IsRule():
			info := x.readEdge(s.RuleIndex())
			if !info.split {
				for _, t := range info.tokens {
					stream = append(stream, poolStreamToken{tok: t, sym: idx})
				}
				continue
			}
			h := analytics.SeqLen - 1
			for i, t := range info.tokens {
				st := poolStreamToken{tok: t, sym: idx}
				if i == h-1 {
					st.gapAfter = true
				}
				stream = append(stream, st)
			}
		}
	}
	flush()
	x.ws.stream = stream
}

// addSegmentSeqCounts accumulates a symbol sequence's n-gram counts into
// counter: per-rule internal counts from pool tables, plus spanning windows.
func (x *exec) addSegmentSeqCounts(syms []cfg.Symbol, counter *kcounter) error {
	e := x.e
	for _, s := range syms {
		if !s.IsRule() {
			continue
		}
		if err := x.canceled(); err != nil {
			return err
		}
		off := e.meta(s.RuleIndex()).seqOff()
		if off == 0 {
			continue // rule has no internal n-grams
		}
		if err := x.mergeTable(counter, off, 1); err != nil {
			return err
		}
	}
	return x.addSpanningToCounter(syms, counter)
}

// seqBound bounds a segment's distinct-sequence count by its expansion
// length (each window starts at one token).
func (x *exec) seqBound(syms []cfg.Symbol) int64 {
	e := x.e
	var length int64
	for _, s := range syms {
		switch {
		case s.IsWord():
			length++
		case s.IsRule():
			length += e.meta(s.RuleIndex()).expLen()
		}
	}
	if length < 1 {
		length = 1
	}
	if n := int64(len(e.seqList)); n > 0 && n < length {
		return n
	}
	return length
}

// addWeightedLocals merges every rule's local-window table, scaled by the
// rule's weight — its per-file weight captured during a per-file sweep when
// fileWeight is given, else the corpus-wide weight a top-down pass left
// behind — into counter.
func (x *exec) addWeightedLocals(counter *kcounter, fileWeight []uint64) error {
	e := x.e
	for r := uint32(1); r < e.numRules; r++ {
		var w uint64
		if fileWeight != nil {
			w = fileWeight[r]
		} else {
			w = x.weight(r)
		}
		if w == 0 {
			continue
		}
		if err := x.canceled(); err != nil {
			return err
		}
		off := int64(e.localsAcc.Uint64(int64(r) * 8))
		if off == 0 {
			continue // rule has no local windows
		}
		if err := x.mergeTable(counter, off, w); err != nil {
			return err
		}
		if err := x.commit(); err != nil {
			return err
		}
	}
	return nil
}

// addSpanningToCounter counts the boundary-spanning windows of a top-level
// symbol sequence into counter via the DRAM sequence dictionary.
func (x *exec) addSpanningToCounter(syms []cfg.Symbol, counter *kcounter) error {
	var emitErr error
	x.spanningWindowsPool(syms, func(q analytics.Seq) {
		if emitErr != nil {
			return
		}
		x.cpu += metrics.CostSeqOp // DRAM intern lookup
		id, ok := x.e.seqIDs[q]
		if !ok {
			// Every possible window was interned at initialization; an
			// unknown one indicates pool corruption.
			emitErr = errEngine("sequence traversal", ErrNoSequences)
			return
		}
		emitErr = x.add(counter, uint64(id), 1)
	})
	if emitErr != nil {
		return emitErr
	}
	return x.commit()
}
