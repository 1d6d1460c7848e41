package sequitur

import "github.com/text-analytics/ntadoc/internal/cfg"

// The reference builder: Sequitur over one heap node per symbol, linked by
// pointers, as the package first implemented it.  It is kept only as the
// oracle the arena builder is held to (TestInferMatchesReference,
// FuzzInferMatchesReference): same input, same grammar, rule numbering
// included.  Its digram index is a Go map, which the open-addressing table
// replaced without a visible difference.

type refNode struct {
	prev, next *refNode
	sym        cfg.Symbol
	rule       *refRule // non-nil only for guard nodes
}

type refRule struct {
	guard *refNode
	id    int // placeholder index, -1 until first referenced
}

func newRefRule() *refRule {
	r := &refRule{id: -1}
	g := &refNode{rule: r}
	g.prev, g.next = g, g
	r.guard = g
	return r
}

func (r *refRule) first() *refNode { return r.guard.next }
func (r *refRule) last() *refNode  { return r.guard.prev }

type refBuilder struct {
	digrams  map[uint64]*refNode
	root     *refRule
	ruleList []*refRule
	files    uint32
}

func newRefBuilder() *refBuilder {
	return &refBuilder{digrams: make(map[uint64]*refNode), root: newRefRule()}
}

// refInfer is Infer on the reference builder; the input must be valid.
func refInfer(tokens [][]uint32, numWords uint32) *cfg.Grammar {
	b := newRefBuilder()
	for _, ids := range tokens {
		b.appendFile(ids)
	}
	return b.finish(numWords)
}

func (b *refBuilder) appendFile(ids []uint32) {
	for _, id := range ids {
		b.appendSymbol(cfg.Word(id))
	}
	b.appendSymbol(cfg.Sep(b.files))
	b.files++
}

func (b *refBuilder) ruleSym(r *refRule) cfg.Symbol {
	if r.id < 0 {
		r.id = len(b.ruleList)
		b.ruleList = append(b.ruleList, r)
	}
	return cfg.Rule(uint32(r.id))
}

func (b *refBuilder) ruleFromSym(s cfg.Symbol) *refRule { return b.ruleList[s.RuleIndex()] }

func (b *refBuilder) appendSymbol(s cfg.Symbol) {
	n := &refNode{sym: s}
	refLink(b.root.last(), n)
	refLink(n, b.root.guard)
	b.checkDigram(n.prev)
}

func refLink(x, y *refNode) {
	x.next = y
	y.prev = x
}

func refIsGuard(n *refNode) bool { return n.rule != nil }

func (b *refBuilder) removeDigram(n *refNode) {
	if refIsGuard(n) || refIsGuard(n.next) {
		return
	}
	k := digramKey(n.sym, n.next.sym)
	if b.digrams[k] == n {
		delete(b.digrams, k)
	}
}

func (b *refBuilder) checkDigram(n *refNode) bool {
	if refIsGuard(n) || refIsGuard(n.next) {
		return false
	}
	if n.sym.IsSep() || n.next.sym.IsSep() {
		return false
	}
	k := digramKey(n.sym, n.next.sym)
	match, ok := b.digrams[k]
	if !ok {
		b.digrams[k] = n
		return false
	}
	if match == n || match.next == n {
		return false
	}
	b.handleMatch(n, match)
	return true
}

func (b *refBuilder) handleMatch(n, match *refNode) {
	if refIsGuard(match.prev) && refIsGuard(match.next.next) && match.prev.rule != b.root {
		b.substitute(n, match.prev.rule)
		return
	}
	r := newRefRule()
	a, c := match.sym, match.next.sym
	ra := &refNode{sym: a}
	rc := &refNode{sym: c}
	refLink(r.guard, ra)
	refLink(ra, rc)
	refLink(rc, r.guard)
	b.digrams[digramKey(a, c)] = ra
	b.substitute(match, r)
	b.substitute(n, r)
}

func (b *refBuilder) substitute(n *refNode, r *refRule) {
	prev := n.prev
	b.deleteNode(n)
	b.deleteNode(prev.next)
	ref := &refNode{sym: b.ruleSym(r)}
	nxt := prev.next
	refLink(prev, ref)
	refLink(ref, nxt)
	if !b.checkDigram(prev) {
		b.checkDigram(ref)
	}
}

func (b *refBuilder) deleteNode(n *refNode) {
	b.removeDigram(n.prev)
	b.removeDigram(n)
	refLink(n.prev, n.next)
}

func (b *refBuilder) finish(numWords uint32) *cfg.Grammar {
	refs := make(map[*refRule]int)
	var count func(r *refRule)
	count = func(r *refRule) {
		for n := r.first(); !refIsGuard(n); n = n.next {
			if !n.sym.IsRule() {
				continue
			}
			child := b.ruleFromSym(n.sym)
			refs[child]++
			if refs[child] == 1 {
				count(child)
			}
		}
	}
	count(b.root)
	inline := func(r *refRule) bool { return refs[r] == 1 }

	finalIdx := map[*refRule]uint32{b.root: 0}
	order := []*refRule{b.root}
	var discover func(r *refRule)
	discover = func(r *refRule) {
		for n := r.first(); !refIsGuard(n); n = n.next {
			if !n.sym.IsRule() {
				continue
			}
			child := b.ruleFromSym(n.sym)
			if inline(child) {
				discover(child)
				continue
			}
			if _, seen := finalIdx[child]; !seen {
				finalIdx[child] = uint32(len(order))
				order = append(order, child)
				discover(child)
			}
		}
	}
	discover(b.root)

	g := &cfg.Grammar{Rules: make([][]cfg.Symbol, len(order)), NumWords: numWords, NumFiles: b.files}
	var emit func(r *refRule, out *[]cfg.Symbol)
	emit = func(r *refRule, out *[]cfg.Symbol) {
		for n := r.first(); !refIsGuard(n); n = n.next {
			if n.sym.IsRule() {
				child := b.ruleFromSym(n.sym)
				if inline(child) {
					emit(child, out)
					continue
				}
				*out = append(*out, cfg.Rule(finalIdx[child]))
				continue
			}
			*out = append(*out, n.sym)
		}
	}
	for idx, r := range order {
		var body []cfg.Symbol
		emit(r, &body)
		g.Rules[idx] = body
	}
	return g
}
