package core

import (
	"github.com/text-analytics/ntadoc/internal/cfg"
)

// Sequence analytics over pool-resident data.  Initialization stored what
// each rule contributes (§IV-D): its local windows as an n-gram table (the
// root's as one run per file: they carry the file structure) and, for the
// bottom-up per-file strategy, its cumulative n-gram table.  Traversal adds
// up table x weight and never expands a rule or walks the root for windows.
// The sequence tasks themselves are analytics.Op folds driven by runPlan.

// mergeRun adds file doc's root run into dst: its directory entry, length
// word and pairs are one batch, like a body read, and each pair is one add.
func (x *exec) mergeRun(dst *kcounter, doc uint32) error {
	if err := x.canceled(); err != nil {
		return err
	}
	dir, pool := x.e.runsAcc, x.e.pool.AccessorAt(0, x.e.pool.Size())
	b := dir.BeginReads()
	off := int64(b.Uint64(dir, int64(doc)*8))
	if off == 0 {
		b.End()
		return nil // the file spans no window
	}
	n := int(b.Uint32(pool, off))
	x.ws.runFlat = fit(x.ws.runFlat, 2*n)
	flat := x.ws.runFlat
	b.Uint32s(pool, off+4, flat)
	b.End()
	for i := 0; i < len(flat); i += 2 {
		if err := x.add(dst, uint64(flat[i]), uint64(flat[i+1])); err != nil {
			return err
		}
	}
	return nil
}

// addSegmentSeqCounts accumulates file doc's n-gram counts into counter: its
// top-level rules' cumulative tables, then its root run.
func (x *exec) addSegmentSeqCounts(doc uint32, syms []cfg.Symbol, counter *kcounter) error {
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
	return x.mergeRun(counter, doc)
}

// seqBound bounds a segment's distinct-sequence count by its expansion
// length (see seqCap).
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
	return e.seqCap(length)
}

// seqCap bounds the distinct sequences of an expansion of length tokens:
// each window starts at one token, and none lies outside the dictionary.
func (e *Engine) seqCap(length int64) int64 {
	length = max(length, 1)
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
