package cfg

import (
	"fmt"
	"math/bits"
)

// Cross-shard rule unification.  Independently-built shard grammars re-learn
// the same repeated sequences — the cross-shard redundancy a single TADOC
// grammar would have shared — so the compressed form grows with the shard
// count even though the underlying phrase inventory does not.  This file
// recovers that sharing after the parallel build:
//
//   - every rule gets an expansion fingerprint, a canonical 128-bit rolling
//     hash of the token stream it expands to, computed bottom-up so nested
//     rules fold into their parents in O(body) per rule;
//   - UnifyShards rewrites the shard grammars bottom-up against one
//     dictionary from fingerprint to shared rule: the first shard to
//     contribute a sequence donates its rule body (translated to global
//     IDs), every later shard's structurally different rule with the same
//     expansion collapses to a reference, and the result is one shared rule
//     table plus a per-shard root.
//
// The unified form preserves per-file expansions exactly — analytics
// results are bit-identical — while the shared table stores each repeated
// sequence once, regardless of how many shards rediscovered it.

// Fingerprint canonically identifies a symbol sequence by its expansion: a
// 128-bit polynomial rolling hash over the expanded token stream plus the
// expansion length.  Concatenation composes (hash(ab) derives from hash(a)
// and hash(b)), which is what lets nested rules fingerprint bottom-up
// without materializing any expansion.  Two sequences with equal
// fingerprints are treated as equal; with two independent 64-bit hashes and
// the length, a false merge needs a 128-bit collision between expansions of
// identical length.
type Fingerprint struct {
	h1, h2 uint64
	n      int64 // expansion length in tokens
}

// Len returns the expansion length the fingerprint covers.
func (f Fingerprint) Len() int64 { return f.n }

// Polynomial bases for the two independent hash lanes (odd, so they are
// invertible mod 2^64 and no state is lost when composing).
const (
	fpBase1 = 0x9e3779b97f4a7c15 | 1
	fpBase2 = 0xc2b2ae3d27d4eb4f | 1
)

// mix64 is the splitmix64 finalizer: a cheap bijective scramble that keeps
// nearby token IDs from producing algebraically related hash terms.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpPow returns base^n under 64-bit wraparound arithmetic.
func fpPow(base uint64, n int64) uint64 {
	r := uint64(1)
	for b := base; n > 0; n >>= 1 {
		if n&1 == 1 {
			r *= b
		}
		b *= b
	}
	return r
}

// fpToken fingerprints a single expanded token.  Separators occur only in
// roots (which never unify) but are salted into a disjoint space anyway so
// a root fingerprint can never equal a rule fingerprint.
func fpToken(tok uint64) Fingerprint {
	return Fingerprint{h1: mix64(tok + 1), h2: mix64(tok ^ 0x517cc1b727220a95), n: 1}
}

// append returns the fingerprint of the concatenation f·g.
func (f Fingerprint) append(g Fingerprint) Fingerprint {
	return Fingerprint{
		h1: f.h1*fpPow(fpBase1, g.n) + g.h1,
		h2: f.h2*fpPow(fpBase2, g.n) + g.h2,
		n:  f.n + g.n,
	}
}

// FingerprintRules computes every rule's expansion fingerprint bottom-up in
// topological order.  fps[0] covers the root (separators included); rules
// with equal expansions — however differently structured — get equal
// fingerprints.
func FingerprintRules(g *Grammar) ([]Fingerprint, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	fps := make([]Fingerprint, len(g.Rules))
	for i := len(order) - 1; i >= 0; i-- {
		ri := order[i]
		var fp Fingerprint
		for _, s := range g.Rules[ri] {
			switch {
			case s.IsRule():
				fp = fp.append(fps[s.RuleIndex()])
			case s.IsSep():
				fp = fp.append(fpToken(uint64(s.SepIndex()) | 1<<40))
			default:
				fp = fp.append(fpToken(uint64(s.WordID())))
			}
		}
		fps[ri] = fp
	}
	return fps, nil
}

// SharedSet is a sharded grammar set rewritten against one shared rule
// table: Shared[i] is a rule body whose Rule symbols index Shared itself,
// and each shard keeps only its root.  Expanding shard s's root against the
// shared table reproduces exactly the files shard s was built from.
type SharedSet struct {
	Shared   [][]Symbol // shared rule table; Rule(i) indexes Shared
	NumWords uint32
	Shards   []SharedShard
}

// SharedShard is one shard's residue after unification: its root (words,
// shard-local separators, and references into the shared table) and its
// file manifest.
type SharedShard struct {
	Root     []Symbol
	NumFiles uint32
	Files    []string // optional, len == NumFiles when present
}

// SingleShard wraps one grammar as a one-shard set: the rules past the root
// become the shared table, every rule reference shifted down by one, and the
// root becomes the only shard's root.  It is the unified form of a K = 1
// corpus — one shard has nothing to unify with, so no pass runs.
// Materialize gives the grammar back rule for rule when its rules are
// numbered in discovery order, as sequitur numbers them.
func SingleShard(g *Grammar) (*SharedSet, error) {
	if len(g.Rules) == 0 {
		return nil, fmt.Errorf("%w: no rules", ErrInvalid)
	}
	size := 0
	for _, body := range g.Rules {
		size += len(body)
	}
	// Every body is cut from one arena, capped at its own length.
	arena := make([]Symbol, 0, size)
	shift := func(body []Symbol) ([]Symbol, error) {
		start := len(arena)
		for _, s := range body {
			if s.IsRule() {
				if s.RuleIndex() == 0 {
					return nil, fmt.Errorf("%w: reference to the root", ErrInvalid)
				}
				s = Rule(s.RuleIndex() - 1)
			}
			arena = append(arena, s)
		}
		return arena[start:len(arena):len(arena)], nil
	}
	set := &SharedSet{Shared: make([][]Symbol, len(g.Rules)-1), NumWords: g.NumWords}
	for i, body := range g.Rules[1:] {
		var err error
		if set.Shared[i], err = shift(body); err != nil {
			return nil, fmt.Errorf("R%d: %w", i+1, err)
		}
	}
	root, err := shift(g.Rules[0])
	if err != nil {
		return nil, fmt.Errorf("R0: %w", err)
	}
	set.Shards = []SharedShard{{Root: root, NumFiles: g.NumFiles, Files: g.Files}}
	return set, nil
}

// reparseLimit bounds how many adjacent symbols a dictionary re-parse will
// coalesce into one run.  Real carving mismatches between shards span a few
// symbols; the cap keeps root re-parsing linear.
const reparseLimit = 64

// unifier is the working state of UnifyShards: the shared table under
// construction and the fingerprint dictionary over it.
//
// The re-parse probes the dictionary once per (start, end) pair of every
// body — up to reparseLimit probes per symbol — and almost every probe
// misses.  A bit set over the low bits of each entry's h1 answers most
// misses without touching the map: a clear bit proves the fingerprint was
// never entered, and a set bit only sends the probe on to the map, so the
// filter cannot change which runs match.
type unifier struct {
	byFP   map[Fingerprint]uint32
	filter []uint64 // bit h1&mask is set for every fingerprint in byFP
	mask   uint64
	shared [][]Symbol
	gfps   []Fingerprint // fingerprint of each shared rule's expansion
	gpows  []fpScale     // fpBase^n of each shared rule's expansion length
	steps  []fpStep      // re-parse scratch: one step per body symbol
}

// fpScale holds (fpBase1ⁿ, fpBase2ⁿ) for an expansion of n tokens: what a
// fingerprint is multiplied by when those n tokens are appended to it.
type fpScale struct{ p1, p2 uint64 }

// fpStep is one symbol's contribution to a run's fingerprint.
type fpStep struct {
	fp  Fingerprint
	pow fpScale
}

// filterBitsPerRule sizes the filter: at 32 bits per entry a probe for an
// absent fingerprint reaches the map about once in 32.
const filterBitsPerRule = 32

// newUnifier returns an empty unifier sized for up to rules entries.
func newUnifier(rules int) *unifier {
	nbits := uint64(1) << bits.Len64(uint64(rules*filterBitsPerRule)|63)
	return &unifier{
		byFP:   make(map[Fingerprint]uint32, rules),
		filter: make([]uint64, nbits/64),
		mask:   nbits - 1,
	}
}

// lookup returns the shared rule whose expansion fingerprint is fp.
func (u *unifier) lookup(fp Fingerprint) (uint32, bool) {
	if bit := fp.h1 & u.mask; u.filter[bit/64]&(1<<(bit%64)) == 0 {
		return 0, false
	}
	gid, ok := u.byFP[fp]
	return gid, ok
}

// add appends a shared rule with expansion fingerprint fp and returns its
// index.
func (u *unifier) add(fp Fingerprint, body []Symbol) uint32 {
	gid := uint32(len(u.shared))
	u.shared = append(u.shared, body)
	u.gfps = append(u.gfps, fp)
	u.gpows = append(u.gpows, fpScale{fpPow(fpBase1, fp.n), fpPow(fpBase2, fp.n)})
	u.byFP[fp] = gid
	bit := fp.h1 & u.mask
	u.filter[bit/64] |= 1 << (bit % 64)
	return gid
}

// tokenScale is the scale of a one-token expansion.
var tokenScale = fpScale{fpBase1, fpBase2}

// step returns the fingerprint step of one translated symbol.
func (u *unifier) step(s Symbol) fpStep {
	switch {
	case s.IsRule():
		return fpStep{u.gfps[s.RuleIndex()], u.gpows[s.RuleIndex()]}
	case s.IsSep():
		return fpStep{fpToken(uint64(s.SepIndex()) | 1<<40), tokenScale}
	default:
		return fpStep{fpToken(uint64(s.WordID())), tokenScale}
	}
}

// reparse rewrites a translated body against the dictionary: any run of
// adjacent symbols whose concatenated fingerprint already names a shared
// rule collapses to a reference to it.  This is what unifies shards that
// carved the same phrase at different rule boundaries — the run one shard
// spelled out (or split differently) snaps to the entry another shard
// registered first — and it is why unification recovers far more than
// exact whole-rule collisions.  Greedy leftmost-longest keeps the rewrite
// deterministic; expansions are preserved exactly by construction.
func (u *unifier) reparse(body []Symbol) []Symbol {
	// A replacement creates new adjacencies that can match in turn (the
	// shard may have carved one phrase into several pieces); iterate to a
	// fixpoint, which each pass approaches monotonically since every
	// rewrite strictly shortens the body.
	for {
		next := u.reparseOnce(body)
		if len(next) == len(body) {
			return next
		}
		body = next
	}
}

func (u *unifier) reparseOnce(body []Symbol) []Symbol {
	steps := u.steps[:0]
	for _, s := range body {
		steps = append(steps, u.step(s))
	}
	u.steps = steps
	out := make([]Symbol, 0, len(body))
	for i := 0; i < len(body); {
		s := body[i]
		if s.IsSep() {
			// Separators occur once each; no dictionary entry contains one.
			out = append(out, s)
			i++
			continue
		}
		run := steps[i].fp
		match, matchEnd := uint32(0), 0
		for j := i + 1; j < len(body) && j-i < reparseLimit; j++ {
			if body[j].IsSep() {
				break
			}
			// run = run·body[j], as Fingerprint.append computes it.
			st := &steps[j]
			run.h1 = run.h1*st.pow.p1 + st.fp.h1
			run.h2 = run.h2*st.pow.p2 + st.fp.h2
			run.n += st.fp.n
			if gid, ok := u.lookup(run); ok {
				match, matchEnd = gid, j+1
			}
		}
		if matchEnd > 0 {
			out = append(out, Rule(match))
			i = matchEnd
			continue
		}
		out = append(out, s)
		i++
	}
	return out
}

// UnifyShards runs the post-build rule-unification pass: shard rules are
// hashed canonically bottom-up (fps comes from FingerprintRules, so nested
// rules already unified fold into their parents), every set of rules with
// one expansion collapses to a single entry in the shared table, and each
// novel body and shard root is re-parsed against the dictionary so
// equivalent-but-differently-carved structure snaps to the first shard's
// rules.  The pass is deterministic — shards are processed in order and the
// surviving table is renumbered by first use — regardless of the
// interleaving that built the shards.
func UnifyShards(shards []*Grammar, fps [][]Fingerprint) (*SharedSet, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: empty shard set", ErrInvalid)
	}
	if len(fps) != len(shards) {
		return nil, fmt.Errorf("%w: %d fingerprint tables for %d shards", ErrInvalid, len(fps), len(shards))
	}
	set := &SharedSet{Shards: make([]SharedShard, len(shards))}
	rules := 0
	for _, g := range shards {
		rules += len(g.Rules)
	}
	u := newUnifier(rules)
	for si, g := range shards {
		if len(g.Rules) == 0 {
			return nil, fmt.Errorf("%w: shard %d has no rules", ErrInvalid, si)
		}
		if len(fps[si]) != len(g.Rules) {
			return nil, fmt.Errorf("%w: shard %d: %d fingerprints for %d rules",
				ErrInvalid, si, len(fps[si]), len(g.Rules))
		}
		if g.NumWords > set.NumWords {
			set.NumWords = g.NumWords
		}
		order, err := g.TopoOrder()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		toGlobal := make([]uint32, len(g.Rules))
		translate := func(body []Symbol) []Symbol {
			out := make([]Symbol, len(body))
			for i, s := range body {
				if s.IsRule() {
					out[i] = Rule(toGlobal[s.RuleIndex()])
				} else {
					out[i] = s
				}
			}
			return out
		}
		// Children before parents, so a body's rule references are already
		// global when its own fingerprint is looked up.
		for i := len(order) - 1; i >= 0; i-- {
			r := order[i]
			if r == 0 {
				continue
			}
			fp := fps[si][r]
			if gid, ok := u.lookup(fp); ok {
				toGlobal[r] = gid
				continue
			}
			toGlobal[r] = u.add(fp, u.reparse(translate(g.Rules[r])))
		}
		set.Shards[si] = SharedShard{
			Root:     u.reparse(translate(g.Rules[0])),
			NumFiles: g.NumFiles,
			Files:    g.Files,
		}
	}
	set.Shared = u.shared
	set.recompress()
	set.inlineSingleUse()
	set.compact()
	return set, nil
}

// recompressRounds caps the digram-folding iteration; real corpora converge
// in a handful of rounds (one per level of phrase nesting).
const recompressRounds = 32

// recompress folds repeats that exist only ACROSS shards: a phrase that
// never repeats inside any single shard forms no rule anywhere, so after
// unification it still sits spelled out in several shard roots.  The pass
// runs RePair-style rounds over the whole unified form — any digram
// occurring twice anywhere (including in two different shards' roots)
// becomes a new shared rule — until the digram-uniqueness invariant the
// single-grammar build enjoys holds across the shard set too.
func (ss *SharedSet) recompress() {
	// The first round counts about one distinct digram per stored symbol;
	// later rounds reuse the maps, cleared.
	counts := make(map[uint64]int, ss.SymbolCount())
	rules := make(map[uint64]uint32)
	for round := 0; round < recompressRounds; round++ {
		clear(counts)
		clear(rules)
		scan := func(body []Symbol) {
			for i := 0; i+1 < len(body); i++ {
				a, b := body[i], body[i+1]
				if a.IsSep() || b.IsSep() {
					continue
				}
				counts[uint64(a)<<32|uint64(b)]++
			}
		}
		for _, body := range ss.Shared {
			scan(body)
		}
		for _, sh := range ss.Shards {
			scan(sh.Root)
		}
		changed := false
		// Bodies are rewritten in place: a fold writes position j <= i only
		// after reading positions i and i+1, and no two bodies share an
		// array.
		apply := func(body []Symbol) []Symbol {
			out := body[:0]
			for i := 0; i < len(body); {
				if i+1 < len(body) {
					a, b := body[i], body[i+1]
					if !a.IsSep() && !b.IsSep() {
						key := uint64(a)<<32 | uint64(b)
						if counts[key] >= 2 {
							id, ok := rules[key]
							if !ok {
								id = uint32(len(ss.Shared))
								ss.Shared = append(ss.Shared, []Symbol{a, b})
								rules[key] = id
							}
							out = append(out, Rule(id))
							i += 2
							changed = true
							continue
						}
					}
				}
				out = append(out, body[i])
				i++
			}
			return out
		}
		// New rule bodies are appended past this bound and left alone: a
		// fresh {a, b} body holds the round's last occurrence of its digram,
		// which no longer repeats.
		bound := len(ss.Shared)
		for ri := 0; ri < bound; ri++ {
			ss.Shared[ri] = apply(ss.Shared[ri])
		}
		for si := range ss.Shards {
			ss.Shards[si].Root = apply(ss.Shards[si].Root)
		}
		if !changed {
			return
		}
	}
}

// inlineSingleUse restores the rule-utility invariant: a shared rule left
// with exactly one reference (greedy digram folding can strand one, and
// unification can bypass a donor shard's internal structure) is spliced
// back into its only use, which always saves one symbol and one rule.
// Chains of single-use rules are expanded recursively against a snapshot of
// the pre-splice bodies, so content never routes through a body that is
// mutated in the same pass.
func (ss *SharedSet) inlineSingleUse() {
	refs := make([]int, len(ss.Shared))
	count := func(body []Symbol) {
		for _, s := range body {
			if s.IsRule() {
				refs[s.RuleIndex()]++
			}
		}
	}
	for _, body := range ss.Shared {
		count(body)
	}
	for _, sh := range ss.Shards {
		count(sh.Root)
	}
	any := false
	for _, n := range refs {
		if n == 1 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	orig := make([][]Symbol, len(ss.Shared))
	copy(orig, ss.Shared)
	var out []Symbol
	var emit func(s Symbol)
	emit = func(s Symbol) {
		if s.IsRule() && refs[s.RuleIndex()] == 1 {
			for _, t := range orig[s.RuleIndex()] {
				emit(t)
			}
			return
		}
		out = append(out, s)
	}
	rewrite := func(body []Symbol) []Symbol {
		out = make([]Symbol, 0, len(body))
		for _, s := range body {
			emit(s)
		}
		return out
	}
	for ri := range ss.Shared {
		if refs[ri] == 1 {
			// Spliced into its sole parent; the leftover body is garbage
			// that compact() collects.
			ss.Shared[ri] = nil
			continue
		}
		ss.Shared[ri] = rewrite(orig[ri])
	}
	for si := range ss.Shards {
		ss.Shards[si].Root = rewrite(ss.Shards[si].Root)
	}
}

// compact drops shared rules no root can reach — a rule becomes garbage
// when every shard that contributed it had its referencing parents unified
// away into another shard's structure — and renumbers the survivors
// densely, preserving first-use order.
func (ss *SharedSet) compact() {
	live := make([]bool, len(ss.Shared))
	var stack []uint32
	visit := func(body []Symbol) {
		for _, s := range body {
			if s.IsRule() && !live[s.RuleIndex()] {
				live[s.RuleIndex()] = true
				stack = append(stack, s.RuleIndex())
			}
		}
	}
	for _, sh := range ss.Shards {
		visit(sh.Root)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(ss.Shared[r])
	}
	remap := make([]uint32, len(ss.Shared))
	kept := ss.Shared[:0]
	for i, body := range ss.Shared {
		if !live[i] {
			continue
		}
		remap[i] = uint32(len(kept))
		kept = append(kept, body)
	}
	if len(kept) == len(ss.Shared) {
		ss.Shared = kept
		return
	}
	rewrite := func(body []Symbol) {
		for i, s := range body {
			if s.IsRule() {
				body[i] = Rule(remap[s.RuleIndex()])
			}
		}
	}
	for _, body := range kept {
		rewrite(body)
	}
	for _, sh := range ss.Shards {
		rewrite(sh.Root)
	}
	ss.Shared = kept
}

// SymbolCount returns the stored size of the unified form in grammar
// symbols: each shared rule body once, plus every shard root.  This is the
// compression metric the shard-scaling experiment reports.
func (ss *SharedSet) SymbolCount() int64 {
	var n int64
	for _, body := range ss.Shared {
		n += int64(len(body))
	}
	for _, sh := range ss.Shards {
		n += int64(len(sh.Root))
	}
	return n
}

// NumShards returns the shard count.
func (ss *SharedSet) NumShards() int { return len(ss.Shards) }

// Validate checks the unified form's structural invariants: references in
// range, words within the vocabulary, no separators inside shared rules,
// per-shard separators local and in order, and an acyclic shared table.
func (ss *SharedSet) Validate() error {
	if len(ss.Shards) == 0 {
		return fmt.Errorf("%w: shared set has no shards", ErrInvalid)
	}
	if uint64(len(ss.Shared)) > MaxRules {
		return fmt.Errorf("%w: %d shared rules", ErrInvalid, len(ss.Shared))
	}
	check := func(body []Symbol, root bool, numFiles uint32) error {
		seps := uint32(0)
		for _, s := range body {
			switch {
			case s.IsRule():
				if int(s.RuleIndex()) >= len(ss.Shared) {
					return fmt.Errorf("%w: reference to missing shared rule %d", ErrInvalid, s.RuleIndex())
				}
			case s.IsSep():
				if !root {
					return fmt.Errorf("%w: separator inside shared rule", ErrInvalid)
				}
				if s.SepIndex() != seps {
					return fmt.Errorf("%w: separator %d out of order (want %d)", ErrInvalid, s.SepIndex(), seps)
				}
				seps++
			default:
				if s.WordID() >= ss.NumWords {
					return fmt.Errorf("%w: word %d beyond vocabulary %d", ErrInvalid, s.WordID(), ss.NumWords)
				}
			}
		}
		if root && seps != numFiles {
			return fmt.Errorf("%w: %d separators for %d files", ErrInvalid, seps, numFiles)
		}
		return nil
	}
	for i, body := range ss.Shared {
		if err := check(body, false, 0); err != nil {
			return fmt.Errorf("shared rule %d: %w", i, err)
		}
	}
	for si, sh := range ss.Shards {
		if err := check(sh.Root, true, sh.NumFiles); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		if sh.Files != nil && uint32(len(sh.Files)) != sh.NumFiles {
			return fmt.Errorf("%w: shard %d: %d file names for %d files",
				ErrInvalid, si, len(sh.Files), sh.NumFiles)
		}
	}
	// Acyclicity over the shared table: iterative DFS, since serialized
	// sets are untrusted input and rule chains can be arbitrarily deep.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, len(ss.Shared))
	type frame struct {
		rule uint32
		next int
	}
	var stack []frame
	for start := range ss.Shared {
		if state[start] != unvisited {
			continue
		}
		stack = append(stack[:0], frame{rule: uint32(start)})
		state[start] = visiting
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			body := ss.Shared[f.rule]
			advanced := false
			for f.next < len(body) {
				s := body[f.next]
				f.next++
				if !s.IsRule() {
					continue
				}
				child := s.RuleIndex()
				switch state[child] {
				case visiting:
					return fmt.Errorf("%w: cycle through shared rule %d", ErrInvalid, child)
				case unvisited:
					state[child] = visiting
					stack = append(stack, frame{rule: child})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced && f.next >= len(body) {
				state[f.rule] = done
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// Materialize rebuilds one self-contained Grammar per shard: the reachable
// closure of the shard's root over the shared table, renumbered locally in
// discovery order (the same stable layout sequitur emits, so the DAG pool
// lays out parents before the bulk of their children).  Engines build from
// the materialized grammars — each shard pool rehydrates exactly the shared
// rules its documents need, keeping every shard an independent persistence
// and recovery domain.
func (ss *SharedSet) Materialize() ([]*Grammar, error) {
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	out := make([]*Grammar, len(ss.Shards))
	// local[gid] is shared rule gid's local index in the shard being
	// materialized, 0 while unseen (local index 0 is the root).
	local := make([]uint32, len(ss.Shared))
	type frame struct {
		body []Symbol
		next int
	}
	var (
		orderGlobal []uint32
		stack       []frame
	)
	for si, sh := range ss.Shards {
		// Discovery-order walk: assign a local index at first reference,
		// descending into a rule's body before continuing past it, so the
		// layout matches the builder's discovery order.  Iterative, because
		// serialized sets are untrusted and may nest deeply.
		orderGlobal = orderGlobal[:0]
		stack = append(stack[:0], frame{body: sh.Root})
		size := len(sh.Root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(f.body) {
				stack = stack[:len(stack)-1]
				continue
			}
			s := f.body[f.next]
			f.next++
			if !s.IsRule() {
				continue
			}
			gid := s.RuleIndex()
			if local[gid] != 0 {
				continue
			}
			local[gid] = uint32(len(orderGlobal) + 1)
			orderGlobal = append(orderGlobal, gid)
			stack = append(stack, frame{body: ss.Shared[gid]})
			size += len(ss.Shared[gid])
		}
		g := &Grammar{
			Rules:    make([][]Symbol, 1+len(orderGlobal)),
			NumWords: ss.NumWords,
			NumFiles: sh.NumFiles,
			Files:    sh.Files,
		}
		// Every rule body is cut from one arena, capped at its own length.
		arena := make([]Symbol, 0, size)
		translate := func(body []Symbol) []Symbol {
			start := len(arena)
			for _, s := range body {
				if s.IsRule() {
					s = Rule(local[s.RuleIndex()])
				}
				arena = append(arena, s)
			}
			return arena[start:len(arena):len(arena)]
		}
		g.Rules[0] = translate(sh.Root)
		for i, gid := range orderGlobal {
			g.Rules[i+1] = translate(ss.Shared[gid])
		}
		for _, gid := range orderGlobal {
			local[gid] = 0
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		out[si] = g
	}
	return out, nil
}
