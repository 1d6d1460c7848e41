// Package sequitur implements the Sequitur grammar-inference algorithm
// (Nevill-Manning & Witten), the core TADOC uses to convert dictionary-
// encoded text into a context-free grammar.  The implementation maintains
// the two classic invariants online, in time linear in the input:
//
//   - digram uniqueness: no pair of adjacent symbols appears more than once
//     in the grammar; a repeated digram becomes (or reuses) a rule;
//   - rule utility: every rule is referenced at least twice; a rule that
//     drops to one reference is inlined and removed.
//
// Multi-file corpora are compressed into a single grammar whose root
// concatenates the files with distinct separator symbols between them
// (paper §II): separators occur exactly once each, so no digram containing
// one can ever repeat, and rules therefore never span file boundaries while
// cross-file redundancy is still captured.
package sequitur

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

// The builder keeps every symbol in one arena, a []node linked by int32
// indices, so inference allocates per arena growth rather than per symbol.
// Node 0 is a sentinel that is never linked and that no digram indexes, so
// 0 reads as "empty" in the digram table.  Nodes a substitution unlinks are
// recycled only after the append that unlinked them returns, so no index a
// caller up the stack still holds is reused by the same append.
//
// Nodes are allocated at most seven per appended symbol: one per append;
// five per new rule (guard, two body symbols, two references), and there
// are no more rules than symbols, since bodies are never empty and together
// hold at most one node per appended symbol; one per reuse of a rule, which
// shrinks the bodies by a node, so there are no more reuses than symbols
// either.  An input of at most maxSymbols symbols therefore never needs more
// than 2^31 nodes, and no index wraps around.  It is a variable only so that
// tests can lower it.
var maxSymbols = int64(1<<31-2) / 7

// node is a symbol in a rule body, or a rule's guard node.
type node struct {
	prev, next int32
	sym        cfg.Symbol
	rule       int32 // for a guard node, the index of its rule; -1 otherwise
}

// builder runs the inference.  Rules are numbered in creation order with
// the root at 0; a rule's placeholder symbol during inference is
// cfg.Rule(index), and rules[index] is its guard node.
type builder struct {
	nodes   []node
	rules   []int32
	free    []int32 // recycled nodes
	dead    []int32 // nodes unlinked by the append in progress
	digrams *digramTable
	files   uint32
	symbols int64 // appended so far, separators included
}

func newBuilder() *builder {
	b := &builder{nodes: make([]node, 1, 1024), digrams: newDigramTable()}
	b.newRule()
	return b
}

// digramKey packs two symbols.
func digramKey(a, b cfg.Symbol) uint64 { return uint64(a)<<32 | uint64(b) }

func (b *builder) newNode(s cfg.Symbol) int32 {
	if n := len(b.free) - 1; n >= 0 {
		i := b.free[n]
		b.free = b.free[:n]
		b.nodes[i] = node{sym: s, rule: -1}
		return i
	}
	b.nodes = append(b.nodes, node{sym: s, rule: -1})
	return int32(len(b.nodes) - 1)
}

// newRule adds an empty rule and returns its index.
func (b *builder) newRule() int32 {
	r := int32(len(b.rules))
	g := b.newNode(0)
	b.nodes[g] = node{prev: g, next: g, rule: r}
	b.rules = append(b.rules, g)
	return r
}

// Infer compresses per-file token streams into a grammar.  tokens[i] is the
// dictionary-encoded content of file i.  numWords is the vocabulary size.
func Infer(tokens [][]uint32, numWords uint32) (*cfg.Grammar, error) {
	b := newBuilder()
	for _, ids := range tokens {
		if err := b.appendFile(ids, numWords); err != nil {
			return nil, err
		}
	}
	return b.finish(numWords), nil
}

// appendFile appends one file's tokens and its separator.  It checks the
// whole file first, so a refused file leaves the builder as it was.
func (b *builder) appendFile(ids []uint32, numWords uint32) error {
	if uint64(b.files)+1 >= cfg.MaxWords {
		return fmt.Errorf("sequitur: too many files (%d)", b.files+1)
	}
	if b.symbols+int64(len(ids))+1 > maxSymbols {
		return fmt.Errorf("sequitur: more than %d symbols", maxSymbols)
	}
	for _, id := range ids {
		if id >= numWords {
			return fmt.Errorf("sequitur: token %d beyond vocabulary %d", id, numWords)
		}
	}
	for _, id := range ids {
		b.appendSymbol(cfg.Word(id))
	}
	// File separators are unique symbols: their digrams can never repeat,
	// so they stay in the root.
	b.appendSymbol(cfg.Sep(b.files))
	b.files++
	b.symbols += int64(len(ids)) + 1
	return nil
}

// appendSymbol appends s to the root and restores the invariants.
func (b *builder) appendSymbol(s cfg.Symbol) {
	n := b.newNode(s)
	g := b.rules[0]
	b.link(b.nodes[g].prev, n)
	b.link(n, g)
	b.checkDigram(b.nodes[n].prev)
	b.free = append(b.free, b.dead...)
	b.dead = b.dead[:0]
}

// link makes y follow x.
func (b *builder) link(x, y int32) {
	b.nodes[x].next = y
	b.nodes[y].prev = x
}

// isGuard reports whether n is a guard node.
func (b *builder) isGuard(n int32) bool { return b.nodes[n].rule >= 0 }

// removeDigram unindexes the digram starting at n, if n owns it.
func (b *builder) removeDigram(n int32) {
	next := b.nodes[n].next
	if b.isGuard(n) || b.isGuard(next) {
		return
	}
	b.digrams.delIf(digramKey(b.nodes[n].sym, b.nodes[next].sym), n)
}

// checkDigram enforces digram uniqueness for the digram starting at n.
// It returns true when the grammar changed.
func (b *builder) checkDigram(n int32) bool {
	next := b.nodes[n].next
	if b.isGuard(n) || b.isGuard(next) {
		return false
	}
	// Separators are unique; digrams containing them never repeat, and
	// keeping them out of the index guarantees no rule spans a file.
	a, c := b.nodes[n].sym, b.nodes[next].sym
	if a.IsSep() || c.IsSep() {
		return false
	}
	match := b.digrams.getOrPut(digramKey(a, c), n)
	if match == 0 || match == n || b.nodes[match].next == n {
		// New, or the same or an overlapping occurrence (aaa): leave as is.
		return false
	}
	b.handleMatch(n, match)
	return true
}

// handleMatch resolves a repeated digram: reuse an existing rule when the
// match is a whole rule body, otherwise create a new rule.
func (b *builder) handleMatch(n, match int32) {
	m := b.nodes[match]
	if r := b.nodes[m.prev].rule; r > 0 && b.isGuard(b.nodes[m.next].next) {
		// match is the entire body of a rule other than the root:
		// substitute that rule at n.
		b.substitute(n, r)
		return
	}
	// Create a new rule for the digram.
	r := b.newRule()
	a, c := m.sym, b.nodes[m.next].sym
	g := b.rules[r]
	ra := b.newNode(a)
	rc := b.newNode(c)
	b.link(g, ra)
	b.link(ra, rc)
	b.link(rc, g)
	b.digrams.put(digramKey(a, c), ra)
	// Replace both occurrences; order matters: the original first.
	b.substitute(match, r)
	b.substitute(n, r)
}

// substitute replaces the digram starting at n with a reference to rule r
// and re-checks the neighbouring digrams.
func (b *builder) substitute(n, r int32) {
	prev := b.nodes[n].prev
	// Delete the two nodes of the digram.
	b.deleteNode(n)
	b.deleteNode(b.nodes[prev].next)
	// Insert the rule reference.
	ref := b.newNode(cfg.Rule(uint32(r)))
	next := b.nodes[prev].next
	b.link(prev, ref)
	b.link(ref, next)
	// Restore invariants around the new reference.
	if !b.checkDigram(prev) {
		b.checkDigram(ref)
	}
}

// deleteNode unlinks n, maintaining the digram index.  Rule utility
// (inlining rules used once) is deferred to finish(), which computes exact
// reachable counts; deferring keeps the online phase simple and cannot
// corrupt the structure mid-substitution.
func (b *builder) deleteNode(n int32) {
	prev, next := b.nodes[n].prev, b.nodes[n].next
	b.removeDigram(prev)
	b.removeDigram(n)
	b.link(prev, next)
	b.dead = append(b.dead, n)
}

// finish converts the linked structure into a cfg.Grammar: it counts
// references reachable from the root, inlines rules referenced exactly once
// (rule utility), drops unreachable rules, and renumbers densely with R0
// first in discovery order (which also yields a stable topological layout
// for the DAG pool).  It only reads the builder.
func (b *builder) finish(numWords uint32) *cfg.Grammar {
	// each calls f on every symbol of rule r's body.
	each := func(r uint32, f func(cfg.Symbol)) {
		for n := b.nodes[b.rules[r]].next; !b.isGuard(n); n = b.nodes[n].next {
			f(b.nodes[n].sym)
		}
	}
	// Count references with multiplicity, reachable from the root.
	refs := make([]int32, len(b.rules))
	var count func(s cfg.Symbol)
	count = func(s cfg.Symbol) {
		if !s.IsRule() {
			return
		}
		r := s.RuleIndex()
		refs[r]++
		if refs[r] == 1 {
			each(r, count)
		}
	}
	each(0, count)

	// Assign final indices to surviving rules in discovery order; 0 marks
	// a rule not yet numbered, since nothing references the root.
	final := make([]uint32, len(b.rules))
	order := []uint32{0}
	var discover func(s cfg.Symbol)
	discover = func(s cfg.Symbol) {
		if !s.IsRule() {
			return
		}
		r := s.RuleIndex()
		if refs[r] != 1 {
			if final[r] != 0 {
				return
			}
			final[r] = uint32(len(order))
			order = append(order, r)
		}
		each(r, discover)
	}
	each(0, discover)

	g := &cfg.Grammar{
		Rules:    make([][]cfg.Symbol, len(order)),
		NumWords: numWords,
		NumFiles: b.files,
	}
	var body []cfg.Symbol
	var emit func(s cfg.Symbol)
	emit = func(s cfg.Symbol) {
		switch {
		case !s.IsRule():
			body = append(body, s)
		case refs[s.RuleIndex()] == 1:
			each(s.RuleIndex(), emit)
		default:
			body = append(body, cfg.Rule(final[s.RuleIndex()]))
		}
	}
	for i, r := range order {
		body = nil
		each(r, emit)
		g.Rules[i] = body
	}
	return g
}
