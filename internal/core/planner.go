package core

import (
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// Cost-based execution planning.  The traversal direction for per-file
// tasks (§VI-E) used to be a fixed heuristic — the old rule flipped to
// bottom-up above a fixed 500-file threshold, which got both shapes wrong:
// our §VI-E trend table measures top-down 1.4× slower already at 400
// B-shaped files, while D's 96 deep documents (past no threshold) are 1.4×
// *faster* top-down.  File count alone cannot separate them; the model below
// weighs the per-file weight sweep against the bottom-up list-merge volume.
//
// The planner is a pure function of grammar shape and the cost constants,
// so the same decision falls out at initialization (which commits the
// sequence-table layout), at traversal time, and after crash recovery.

// chooseStrategy models the two per-file traversal directions and picks the
// cheaper (Options.Strategy overrides are applied by the callers):
//
//   - top-down sweeps the full topological order once per file — every rule
//     charges a weight-slot probe even when the file reaches none of it.
//     The reached bodies it then reads sit in granule-cached pool regions,
//     so the F·R probe sweep dominates: F·R·hash.
//   - bottom-up materializes each rule's distinct-word list once and merges
//     referenced lists entry by entry — in rule bodies and again at each
//     file's top level.  mergeWork (from planFeatures) counts those entries,
//     plus one entry per body symbol seeding its own list: (M + S)·merge.
//
// Calibrated against the measured engine: the model reproduces the §VI-E
// trend (B-shaped corpora flip to bottom-up by 400 tiny files, where the
// old fixed 500-file threshold still chose the direction measured 1.4×
// slower) and keeps few-large-document corpora (C, D) top-down — D's 96
// deep documents stay 1.4× faster top-down, because every bottom-up merge
// re-pays its wide distinct vocabulary, which a file-count threshold alone
// cannot see.
func chooseStrategy(numFiles, numRules uint32, bodySymbols, mergeWork int64) Strategy {
	f, r := int64(numFiles), int64(numRules)
	topDown := f * r * metrics.CostHashOp
	bottomUp := (mergeWork + bodySymbols) * metrics.CostMergeEntry
	if topDown <= bottomUp {
		return TopDown
	}
	return BottomUp
}

// planFeatures extracts the planner's grammar-shape features in one
// bottom-up pass: the total rule-body symbol count, and the bottom-up merge
// work — for every distinct rule reference (in rule bodies and in the
// root's file segments), the estimated size of the referenced rule's
// materialized distinct-word list, which is what perFileBottomUp merges
// entry by entry.  List sizes are estimated as expansion word counts capped
// at the vocabulary (the same cap the engine's bounded tables apply).
func planFeatures(g *cfg.Grammar, order []uint32) (bodySymbols, mergeWork int64) {
	listLen := make([]int64, len(g.Rules))
	vocab := int64(g.NumWords)
	// seenBy[c] == r+1: rule r's body already referenced rule c.
	seenBy := make([]uint32, len(g.Rules))
	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		body := g.Rules[r]
		bodySymbols += int64(len(body))
		var d int64
		for _, s := range body {
			switch {
			case s.IsWord():
				d++
			case s.IsRule():
				if r == 0 {
					// Root segments merge each referenced list per
					// occurrence; pruned rule bodies merge per distinct
					// reference (frequency is a multiplier, not a re-merge).
					mergeWork += listLen[s.RuleIndex()]
					continue
				}
				if seenBy[s.RuleIndex()] == r+1 {
					continue
				}
				seenBy[s.RuleIndex()] = r + 1
				d += listLen[s.RuleIndex()]
				mergeWork += listLen[s.RuleIndex()]
			}
		}
		if d > vocab {
			d = vocab
		}
		listLen[r] = d
	}
	return bodySymbols, mergeWork
}

// strategyForGrammar resolves the traversal direction for a grammar with
// planFeatures' shape before an engine exists — preprocessing uses it to
// commit the matching sequence-table layout (cumulative tables for
// bottom-up, edge-only for top-down).
func strategyForGrammar(g *cfg.Grammar, opts Options, bodySymbols, mergeWork int64) Strategy {
	if opts.Strategy != Auto {
		return opts.Strategy
	}
	return chooseStrategy(g.NumFiles, uint32(len(g.Rules)), bodySymbols, mergeWork)
}
