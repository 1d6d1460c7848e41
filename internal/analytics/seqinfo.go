package analytics

import (
	"slices"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

// This file implements the grammar preprocessing shared by the compressed
// engines: top-down rule weights, bottom-up per-rule word lists, file
// segmentation of the root rule, and the head/tail sequence summaries of
// §IV-D that let sequence tasks run without expanding rules.

// RuleWeights computes how many times each rule is expanded across the whole
// corpus: weight(R0)=1, and every reference propagates its holder's weight —
// the top-down traversal of the paper's word-count example (Figure 1e).
func RuleWeights(g *cfg.Grammar) ([]uint64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	w := make([]uint64, len(g.Rules))
	w[0] = 1
	for _, ri := range order {
		for _, s := range g.Rules[ri] {
			if s.IsRule() {
				w[s.RuleIndex()] += w[ri]
			}
		}
	}
	return w, nil
}

// RuleWordLists computes each rule's word list — word -> frequency within a
// single expansion of the rule — bottom-up in reverse topological order, the
// paper's bottom-up traversal.  The returned maps are what the bottom-up
// summation technique (Alg 2) bounds: len(list[r]) <= bound(r) always.
func RuleWordLists(g *cfg.Grammar) ([]map[uint32]uint64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	lists := make([]map[uint32]uint64, len(g.Rules))
	for i := len(order) - 1; i >= 0; i-- {
		ri := order[i]
		list := make(map[uint32]uint64)
		for _, s := range g.Rules[ri] {
			switch {
			case s.IsWord():
				list[s.WordID()]++
			case s.IsRule():
				for w, c := range lists[s.RuleIndex()] {
					list[w] += c
				}
			}
		}
		lists[ri] = list
	}
	return lists, nil
}

// UpperBounds implements Algorithm 2, bottom-up summation: the upper bound
// of each rule's word-list length is the sum of its subrules' bounds (with
// multiplicity) plus its own word count.  The N-TADOC engine sizes every
// pool structure from these bounds so nothing is reconstructed on NVM.
func UpperBounds(g *cfg.Grammar) ([]int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	bounds := make([]int64, len(g.Rules))
	for i := len(order) - 1; i >= 0; i-- {
		ri := order[i]
		var b int64
		for _, s := range g.Rules[ri] {
			switch {
			case s.IsWord():
				b++
			case s.IsRule():
				b += bounds[s.RuleIndex()]
			}
		}
		bounds[ri] = b
	}
	return bounds, nil
}

// FileSegments splits the root rule at its separators: segment i is file
// i's top-level symbol sequence.
func FileSegments(g *cfg.Grammar) [][]cfg.Symbol {
	segs := make([][]cfg.Symbol, 0, g.NumFiles)
	body := g.Rules[0]
	start := 0
	for i, s := range body {
		if s.IsSep() {
			segs = append(segs, body[start:i])
			start = i + 1
		}
	}
	return segs
}

// SeqInfo summarizes one rule for sequence analytics: the n-grams internal
// to a single expansion, the expansion length, and the head/tail edge
// tokens (§IV-D).  Edge holds the full expansion when it is short enough
// that head and tail would overlap (Len <= 2*(SeqLen-1)); otherwise it holds
// head followed by tail with an implied gap between them — boundary-spanning
// windows reach at most SeqLen-1 tokens into a rule, so the gap is never
// observed.
type SeqInfo struct {
	Counts map[Seq]uint64
	Len    int64
	Edge   []uint32
	Split  bool // Edge is head+tail around a gap
}

// Head returns the first min(Len, SeqLen-1) expanded tokens.
func (si *SeqInfo) Head() []uint32 {
	n := int64(SeqLen - 1)
	if si.Len < n {
		n = si.Len
	}
	return si.Edge[:n]
}

// Tail returns the last min(Len, SeqLen-1) expanded tokens.
func (si *SeqInfo) Tail() []uint32 {
	n := int64(SeqLen - 1)
	if si.Len < n {
		n = si.Len
	}
	return si.Edge[int64(len(si.Edge))-n:]
}

// ComputeSeqInfo builds the per-rule sequence summaries bottom-up, including
// the cumulative Counts maps.  The root's Counts already exclude windows
// crossing file separators, so infos[0].Counts is the global sequence-count
// result.
func ComputeSeqInfo(g *cfg.Grammar) ([]*SeqInfo, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return SummarizeRules(g, order, true), nil
}

// SeqMergeEntries returns the count-table entries merged when the bodies'
// rule occurrences each add their rule's cumulative Counts: what
// ComputeSeqInfo merges over every rule body, and SegmentSeqCounts over one
// file's segment.
func SeqMergeEntries(infos []*SeqInfo, bodies ...[]cfg.Symbol) int64 {
	var n int64
	for _, body := range bodies {
		for _, s := range body {
			if s.IsRule() {
				n += int64(len(infos[s.RuleIndex()].Counts))
			}
		}
	}
	return n
}

// SummarizeRules builds the per-rule summaries over order, a topological
// order of g's rules the caller already holds (g.TopoOrder).  withCounts
// adds the cumulative Counts maps, which is what ComputeSeqInfo returns;
// without them only the expansion lengths and head/tail edges are built —
// all that local-window counting needs, in one linear pass instead of the
// full bottom-up merge.
func SummarizeRules(g *cfg.Grammar, order []uint32, withCounts bool) []*SeqInfo {
	infos := make([]*SeqInfo, len(g.Rules))
	slab := make([]SeqInfo, len(g.Rules))
	edges := make([]uint32, 0, 2*(SeqLen-1)*len(g.Rules))
	var w WindowWalker
	for i := len(order) - 1; i >= 0; i-- {
		ri := order[i]
		infos[ri] = &slab[ri]
		edges = summarizeBody(&slab[ri], g.Rules[ri], infos, withCounts, &w, edges)
	}
	return infos
}

// summarizeBody fills out, the SeqInfo of one rule body, given summaries of
// every rule it references; its Edge is cut from the edges arena, which it
// returns extended.
func summarizeBody(out *SeqInfo, body []cfg.Symbol, infos []*SeqInfo, withCounts bool, w *WindowWalker, edges []uint32) []uint32 {
	if withCounts {
		out.Counts = make(map[Seq]uint64)
	}
	// Sum internal counts of referenced rules, then add boundary-spanning
	// windows via the edge stream.
	for _, s := range body {
		if s.IsRule() {
			child := infos[s.RuleIndex()]
			out.Len += child.Len
			if withCounts {
				for q, c := range child.Counts {
					out.Counts[q] += c
				}
			}
		} else if s.IsWord() {
			out.Len++
		}
		// Separators contribute nothing and are handled as hard breaks in
		// the stream walk below.
	}
	if withCounts {
		w.Walk(body, infos, func(_ int, q Seq) { out.Counts[q]++ })
	}
	return buildEdge(out, body, infos, edges)
}

// streamToken is one token of the edge stream with provenance: which body
// position it came from and whether a gap immediately precedes it.
type streamToken struct {
	tok      uint32
	sym      int  // index into the body
	gapAfter bool // a gap follows this token (within a split symbol)
}

// appendStream appends symbol s's edge contribution to the stream.
func appendStream(stream []streamToken, symIdx int, s cfg.Symbol, infos []*SeqInfo) []streamToken {
	if s.IsWord() {
		return append(stream, streamToken{tok: s.WordID(), sym: symIdx})
	}
	info := infos[s.RuleIndex()]
	if !info.Split {
		for _, t := range info.Edge {
			stream = append(stream, streamToken{tok: t, sym: symIdx})
		}
		return stream
	}
	h := SeqLen - 1
	for i, t := range info.Edge {
		st := streamToken{tok: t, sym: symIdx}
		if i == h-1 {
			st.gapAfter = true
		}
		stream = append(stream, st)
	}
	return stream
}

// SpanningWindows walks the body's edge stream and emits every window of
// SeqLen tokens that is contiguous in the underlying expansion (no gap, no
// separator) and spans at least two symbols — i.e. exactly the windows not
// already counted inside some rule's own Counts — with its file: the number
// of separators before it.  Over the root it is every file's local windows
// in one walk.
func SpanningWindows(body []cfg.Symbol, infos []*SeqInfo, emit func(file int, q Seq)) {
	new(WindowWalker).Walk(body, infos, emit)
}

// WindowWalker walks spanning windows body after body with one edge stream,
// so a pass over every rule grows it once instead of once per rule.
type WindowWalker struct{ stream []streamToken }

// Walk is SpanningWindows over w's stream.
func (w *WindowWalker) Walk(body []cfg.Symbol, infos []*SeqInfo, emit func(file int, q Seq)) {
	stream := w.stream[:0]
	file := 0
	flush := func() {
		for i := 0; i+SeqLen <= len(stream); i++ {
			valid := true
			for j := 0; j < SeqLen-1; j++ {
				if stream[i+j].gapAfter {
					valid = false
					break
				}
			}
			if !valid || stream[i].sym == stream[i+SeqLen-1].sym {
				continue // gap inside, or internal to one symbol
			}
			var q Seq
			for j := 0; j < SeqLen; j++ {
				q[j] = stream[i+j].tok
			}
			emit(file, q)
		}
		stream = stream[:0]
	}
	for idx, s := range body {
		if s.IsSep() {
			flush() // separators break adjacency: windows never cross files
			file++
			continue
		}
		stream = appendStream(stream, idx, s, infos)
	}
	flush()
	w.stream = stream
}

// buildEdge fills out.Edge/out.Split from the body, cutting Edge from the
// edges arena, and returns the arena extended.
func buildEdge(out *SeqInfo, body []cfg.Symbol, infos []*SeqInfo, edges []uint32) []uint32 {
	const keep = SeqLen - 1
	start := len(edges)
	if out.Len <= 2*keep {
		// Short expansion: materialize it fully (it is at most 4 tokens).
		// A short parent can only have short children, whose Edge is their
		// full expansion.
		for _, s := range body {
			switch {
			case s.IsWord():
				edges = append(edges, s.WordID())
			case s.IsRule():
				edges = append(edges, infos[s.RuleIndex()].Edge...)
			}
		}
		out.Edge = edges[start:len(edges):len(edges)]
		out.Split = false
		return edges
	}
	// Long expansion: head = first keep tokens, tail = last keep tokens.
	for _, s := range body {
		if len(edges)-start == keep {
			break
		}
		if s.IsSep() {
			continue
		}
		if s.IsWord() {
			edges = append(edges, s.WordID())
			continue
		}
		h := infos[s.RuleIndex()].Head()
		for _, t := range h {
			if len(edges)-start == keep {
				break
			}
			edges = append(edges, t)
		}
	}
	mid := len(edges)
	for i := len(body) - 1; i >= 0 && len(edges)-mid < keep; i-- {
		s := body[i]
		if s.IsSep() {
			continue
		}
		if s.IsWord() {
			edges = append(edges, s.WordID())
			continue
		}
		tl := infos[s.RuleIndex()].Tail()
		for j := len(tl) - 1; j >= 0 && len(edges)-mid < keep; j-- {
			edges = append(edges, tl[j])
		}
	}
	// The tail was collected right-to-left; reverse it.
	slices.Reverse(edges[mid:])
	out.Edge = edges[start:len(edges):len(edges)]
	out.Split = true
	return edges
}

// SegmentSeqCounts computes one file's n-gram counts from its top-level
// segment and the per-rule summaries, without expanding any rule.
func SegmentSeqCounts(seg []cfg.Symbol, infos []*SeqInfo) map[Seq]uint64 {
	out := make(map[Seq]uint64)
	for _, s := range seg {
		if s.IsRule() {
			for q, c := range infos[s.RuleIndex()].Counts {
				out[q] += c
			}
		}
	}
	SpanningWindows(seg, infos, func(_ int, q Seq) { out[q]++ })
	return out
}
