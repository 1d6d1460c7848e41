package cfg

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// expandSet expands every shard of a unified set back to token streams via
// Materialize, so round-trip tests compare against the source grammars.
func expandSet(t *testing.T, set *SharedSet) [][][]uint32 {
	t.Helper()
	mats, err := set.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	out := make([][][]uint32, len(mats))
	for i, g := range mats {
		out[i] = g.ExpandFiles()
	}
	return out
}

func mustFingerprint(t *testing.T, g *Grammar) []Fingerprint {
	t.Helper()
	fps, err := FingerprintRules(g)
	if err != nil {
		t.Fatalf("FingerprintRules: %v", err)
	}
	return fps
}

func TestFingerprintEqualExpansionsAcrossStructures(t *testing.T) {
	// Same expansion "w0 w1 w2 | " carved two different ways.
	g1 := &Grammar{
		NumWords: 3, NumFiles: 1,
		Rules: [][]Symbol{
			{Rule(1), Word(2), Sep(0)},
			{Word(0), Word(1)},
		},
	}
	g2 := &Grammar{
		NumWords: 3, NumFiles: 1,
		Rules: [][]Symbol{
			{Word(0), Rule(1), Sep(0)},
			{Word(1), Word(2)},
		},
	}
	f1, f2 := mustFingerprint(t, g1), mustFingerprint(t, g2)
	if f1[0] != f2[0] {
		t.Fatalf("equal expansions fingerprint differently: %v vs %v", f1[0], f2[0])
	}
	if f1[1] == f2[1] {
		t.Fatalf("different rule expansions collide: %v", f1[1])
	}
	if f1[0].Len() != 4 {
		t.Fatalf("root fingerprint length = %d, want 4", f1[0].Len())
	}
}

func TestFingerprintSepSalting(t *testing.T) {
	// A separator must never fingerprint like any word, even the word whose
	// ID matches the separator index.
	sep := fpToken(uint64(Sep(0).SepIndex()) | 1<<40)
	if sep == fpToken(0) {
		t.Fatal("separator fingerprint collides with word 0")
	}
}

// unifyShards fingerprints and unifies hand-built shard grammars.
func unifyShards(t *testing.T, shards []*Grammar) *SharedSet {
	t.Helper()
	fps := make([][]Fingerprint, len(shards))
	for i, g := range shards {
		fps[i] = mustFingerprint(t, g)
	}
	set, err := UnifyShards(shards, fps)
	if err != nil {
		t.Fatalf("UnifyShards: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("unified set invalid: %v", err)
	}
	return set
}

func TestUnifyShardsRoundTripAndSharing(t *testing.T) {
	// Both shards discover the phrase "w0 w1"; shard 2 also spells out
	// shard 1's "w0 w1 w2" carving inline, which the dictionary re-parse
	// should snap to shard 1's structure.
	shards := []*Grammar{
		{
			NumWords: 6, NumFiles: 2,
			Files: []string{"a", "b"},
			Rules: [][]Symbol{
				{Rule(1), Word(2), Sep(0), Rule(1), Word(2), Word(3), Sep(1)},
				{Word(0), Word(1)},
			},
		},
		{
			NumWords: 6, NumFiles: 1,
			Files: []string{"c"},
			Rules: [][]Symbol{
				{Word(0), Word(1), Word(2), Word(5), Rule(1), Sep(0)},
				{Word(0), Word(1)},
			},
		},
	}
	want := make([][][]uint32, len(shards))
	var raw int64
	for i, g := range shards {
		want[i] = g.ExpandFiles()
		for _, body := range g.Rules {
			raw += int64(len(body))
		}
	}
	set := unifyShards(t, shards)
	if got := expandSet(t, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("expansions changed by unification:\n got %v\nwant %v", got, want)
	}
	if set.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", set.NumShards())
	}
	if set.SymbolCount() >= raw {
		t.Fatalf("unified form (%d symbols) no smaller than raw shards (%d)", set.SymbolCount(), raw)
	}
}

func TestUnifyShardsNestedRulesCollapse(t *testing.T) {
	// The same nested structure built twice: bottom-up fingerprinting must
	// unify the inner rule first so the outer rules hash equal too.
	mk := func() *Grammar {
		return &Grammar{
			NumWords: 4, NumFiles: 1,
			Rules: [][]Symbol{
				{Rule(1), Rule(1), Sep(0)},
				{Rule(2), Word(3), Rule(2)},
				{Word(0), Word(1)},
			},
		}
	}
	shards := []*Grammar{mk(), mk()}
	want := [][][]uint32{shards[0].ExpandFiles(), shards[1].ExpandFiles()}
	set := unifyShards(t, shards)
	// Identical shards contribute identical structure: the shared table must
	// not have doubled.  (It may gain one extra rule: the root digram now
	// repeats across the two roots, so the recompression pass folds it.)
	single := unifyShards(t, []*Grammar{mk()})
	if len(set.Shared) >= 2*len(single.Shared) {
		t.Fatalf("two identical shards produced %d shared rules, one shard produces %d",
			len(set.Shared), len(single.Shared))
	}
	if got := expandSet(t, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("expansions changed: got %v want %v", got, want)
	}
	if !reflect.DeepEqual(set.Shards[0].Root, set.Shards[1].Root) {
		t.Fatalf("identical shards got different roots: %v vs %v",
			set.Shards[0].Root, set.Shards[1].Root)
	}
}

func TestUnifyShardsCrossShardDigramRecompression(t *testing.T) {
	// The digram "w0 w1" appears once per shard — no shard forms a rule for
	// it, but across the set it repeats, so the recompression pass must fold
	// it into one shared rule referenced by both roots.
	mkShard := func(trail uint32) *Grammar {
		return &Grammar{
			NumWords: 8, NumFiles: 1,
			Rules: [][]Symbol{{Word(0), Word(1), Word(trail), Sep(0)}},
		}
	}
	shards := []*Grammar{mkShard(2), mkShard(3)}
	want := [][][]uint32{shards[0].ExpandFiles(), shards[1].ExpandFiles()}
	set := unifyShards(t, shards)
	if len(set.Shared) == 0 {
		t.Fatal("cross-shard digram not folded into a shared rule")
	}
	if got := expandSet(t, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("expansions changed: got %v want %v", got, want)
	}
}

func TestUnifyShardsRuleUtilityAndReachability(t *testing.T) {
	// After unification every surviving shared rule must be referenced at
	// least twice (single-use rules are spliced, unreachable ones dropped).
	shards := []*Grammar{
		{
			NumWords: 8, NumFiles: 2,
			Rules: [][]Symbol{
				{Rule(1), Word(4), Sep(0), Rule(1), Word(5), Sep(1)},
				{Word(0), Word(1), Word(2)},
			},
		},
		{
			NumWords: 8, NumFiles: 1,
			Rules: [][]Symbol{
				{Rule(1), Word(6), Rule(1), Word(7), Sep(0)},
				{Word(0), Word(1), Word(2), Word(3)},
			},
		},
	}
	set := unifyShards(t, shards)
	refs := make([]int, len(set.Shared))
	count := func(body []Symbol) {
		for _, s := range body {
			if s.IsRule() {
				refs[s.RuleIndex()]++
			}
		}
	}
	for _, body := range set.Shared {
		count(body)
	}
	for _, sh := range set.Shards {
		count(sh.Root)
	}
	for ri, n := range refs {
		if n < 2 {
			t.Fatalf("shared rule %d has %d references; utility invariant broken", ri, n)
		}
	}
}

func TestUnifyShardsDeterministic(t *testing.T) {
	shards := shardGrammars(t)
	a := unifyShards(t, shards)
	b := unifyShards(t, shardGrammars(t))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unification not deterministic:\n a %+v\n b %+v", a, b)
	}
}

func TestUnifyShardsInputErrors(t *testing.T) {
	g := shardGrammars(t)[0]
	fps := mustFingerprint(t, g)
	if _, err := UnifyShards(nil, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty shard set: err = %v, want ErrInvalid", err)
	}
	if _, err := UnifyShards([]*Grammar{g}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("missing fingerprints: err = %v, want ErrInvalid", err)
	}
	if _, err := UnifyShards([]*Grammar{g}, [][]Fingerprint{fps[:1]}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short fingerprints: err = %v, want ErrInvalid", err)
	}
}

func TestSharedSetValidateRejections(t *testing.T) {
	valid := func() *SharedSet {
		return &SharedSet{
			Shared:   [][]Symbol{{Word(0), Word(1)}},
			NumWords: 4,
			Shards: []SharedShard{
				{Root: []Symbol{Rule(0), Sep(0), Rule(0), Sep(1)}, NumFiles: 2},
			},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline set invalid: %v", err)
	}
	cases := []struct {
		name  string
		mutil func(*SharedSet)
	}{
		{"no shards", func(ss *SharedSet) { ss.Shards = nil }},
		{"sep inside shared rule", func(ss *SharedSet) { ss.Shared[0] = []Symbol{Word(0), Sep(0)} }},
		{"ref out of range", func(ss *SharedSet) { ss.Shards[0].Root[0] = Rule(7) }},
		{"word beyond vocabulary", func(ss *SharedSet) { ss.Shared[0] = []Symbol{Word(99)} }},
		{"sep out of order", func(ss *SharedSet) {
			ss.Shards[0].Root = []Symbol{Rule(0), Sep(1), Rule(0), Sep(0)}
		}},
		{"sep count mismatch", func(ss *SharedSet) { ss.Shards[0].NumFiles = 3 }},
		{"files length mismatch", func(ss *SharedSet) { ss.Shards[0].Files = []string{"only-one"} }},
		{"cycle", func(ss *SharedSet) {
			ss.Shared = [][]Symbol{{Rule(1), Word(0)}, {Rule(0)}}
			ss.Shards[0].Root = []Symbol{Rule(0), Sep(0), Rule(0), Sep(1)}
		}},
		{"self cycle", func(ss *SharedSet) { ss.Shared[0] = []Symbol{Rule(0)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := valid()
			tc.mutil(ss)
			if err := ss.Validate(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			if _, err := ss.Materialize(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Materialize err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestMaterializeSelfContainedShards(t *testing.T) {
	// Shard 2 references only part of the shared table; its materialized
	// grammar must contain exactly the reachable closure.
	set := &SharedSet{
		Shared: [][]Symbol{
			{Word(0), Word(1)},
			{Rule(0), Word(2)},
		},
		NumWords: 4,
		Shards: []SharedShard{
			{Root: []Symbol{Rule(1), Sep(0), Rule(1), Sep(1)}, NumFiles: 2, Files: []string{"a", "b"}},
			{Root: []Symbol{Rule(0), Word(3), Rule(0), Sep(0)}, NumFiles: 1, Files: []string{"c"}},
		},
	}
	mats, err := set.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if len(mats[0].Rules) != 3 { // root + both shared rules
		t.Fatalf("shard 0 has %d rules, want 3", len(mats[0].Rules))
	}
	if len(mats[1].Rules) != 2 { // root + Rule(0) only
		t.Fatalf("shard 1 has %d rules, want 2 (reachable closure only)", len(mats[1].Rules))
	}
	wantFiles := [][]uint32{{0, 1, 3, 0, 1}}
	if got := mats[1].ExpandFiles(); !reflect.DeepEqual(got, wantFiles) {
		t.Fatalf("shard 1 expansion = %v, want %v", got, wantFiles)
	}
	if got := mats[0].Files; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("shard 0 files = %v", got)
	}
}

func TestSingleShard(t *testing.T) {
	g := &Grammar{
		Rules: [][]Symbol{
			{Rule(1), Sep(0), Rule(2), Rule(1), Sep(1)},
			{Word(0), Rule(2)},
			{Word(1), Word(2)},
		},
		NumWords: 3,
		NumFiles: 2,
		Files:    []string{"a", "b"},
	}
	set, err := SingleShard(g)
	if err != nil {
		t.Fatalf("SingleShard: %v", err)
	}
	want := &SharedSet{
		Shared:   [][]Symbol{{Word(0), Rule(1)}, {Word(1), Word(2)}},
		NumWords: 3,
		Shards:   []SharedShard{{Root: []Symbol{Rule(0), Sep(0), Rule(1), Rule(0), Sep(1)}, NumFiles: 2, Files: []string{"a", "b"}}},
	}
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("SingleShard = %+v, want %+v", set, want)
	}
	mats, err := set.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(mats, []*Grammar{g}) {
		t.Fatalf("Materialize(SingleShard(g)) = %+v, want g back", mats[0])
	}
	// A rule referencing the root has no place in a shared table.
	g.Rules = append(g.Rules, []Symbol{Rule(0), Word(0)})
	if _, err := SingleShard(g); !errors.Is(err, ErrInvalid) {
		t.Fatalf("root reference: err = %v, want ErrInvalid", err)
	}
}

// randomShards builds k shard grammars over one pool of nested phrases,
// each shard carving the pool its own way: a phrase is a rule in some
// shards and spelled out in others, and a rule body refers to the rules of
// the phrases inside it where its shard has them.  Phrases carved at
// different boundaries in different shards are what the re-parse unifies.
func randomShards(rng *rand.Rand, k int) []*Grammar {
	const vocab = 12
	// A pool item is a word (>= 0) or phrase q (encoded -(q+1)); a phrase
	// holds only earlier phrases, so the rules built from it are acyclic.
	pool := make([][]int, 24)
	for p := range pool {
		for n := 2 + rng.Intn(4); n > 0; n-- {
			if p > 0 && rng.Intn(3) == 0 {
				pool[p] = append(pool[p], -(rng.Intn(p) + 1))
			} else {
				pool[p] = append(pool[p], rng.Intn(vocab))
			}
		}
	}
	shards := make([]*Grammar, k)
	for s := range shards {
		g := &Grammar{NumWords: vocab, Rules: [][]Symbol{nil}}
		ruleOf := make([]uint32, len(pool)) // 0: spelled out in this shard
		var emit func(body []Symbol, it int) []Symbol
		emit = func(body []Symbol, it int) []Symbol {
			if it >= 0 {
				return append(body, Word(uint32(it)))
			}
			if p := -it - 1; ruleOf[p] != 0 {
				return append(body, Rule(ruleOf[p]))
			} else {
				for _, sub := range pool[p] {
					body = emit(body, sub)
				}
			}
			return body
		}
		for p := range pool {
			if rng.Intn(2) == 0 {
				continue
			}
			var body []Symbol
			for _, it := range pool[p] {
				body = emit(body, it)
			}
			ruleOf[p] = uint32(len(g.Rules))
			g.Rules = append(g.Rules, body)
		}
		var root []Symbol
		g.NumFiles = uint32(1 + rng.Intn(3))
		for f := uint32(0); f < g.NumFiles; f++ {
			for n := 5 + rng.Intn(20); n > 0; n-- {
				if rng.Intn(2) == 0 {
					root = emit(root, -(rng.Intn(len(pool)) + 1))
				} else {
					root = emit(root, rng.Intn(vocab))
				}
			}
			root = append(root, Sep(f))
		}
		g.Rules[0] = root
		shards[s] = g
	}
	return shards
}

// referenceReparse is the re-parse in its plainest form: each run's
// fingerprint extended with Fingerprint.append and probed in a map.
func referenceReparse(byFP map[Fingerprint]uint32, gfps []Fingerprint, body []Symbol) []Symbol {
	fpOf := func(s Symbol) Fingerprint {
		switch {
		case s.IsRule():
			return gfps[s.RuleIndex()]
		case s.IsSep():
			return fpToken(uint64(s.SepIndex()) | 1<<40)
		default:
			return fpToken(uint64(s.WordID()))
		}
	}
	for {
		out := make([]Symbol, 0, len(body))
		for i := 0; i < len(body); {
			if body[i].IsSep() {
				out = append(out, body[i])
				i++
				continue
			}
			run, match, matchEnd := fpOf(body[i]), uint32(0), 0
			for j := i + 1; j < len(body) && j-i < reparseLimit && !body[j].IsSep(); j++ {
				run = run.append(fpOf(body[j]))
				if gid, ok := byFP[run]; ok {
					match, matchEnd = gid, j+1
				}
			}
			if matchEnd > 0 {
				out = append(out, Rule(match))
				i = matchEnd
			} else {
				out = append(out, body[i])
				i++
			}
		}
		if len(out) == len(body) {
			return out
		}
		body = out
	}
}

// TestReparseMatchesReference drives the unifier over random shard grammars
// the way UnifyShards does and holds every re-parse, and every dictionary
// lookup, to the plain-map reference: the filter in front of the map, the
// cached powers and the cut at the longest entry's length (the reference
// extends every run to reparseLimit) must not change which runs match.
func TestReparseMatchesReference(t *testing.T) {
	rewritten := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := randomShards(rng, 2+rng.Intn(3))
		rules := 0
		for _, g := range shards {
			rules += len(g.Rules)
		}
		u := newUnifier(rules)
		byFP := make(map[Fingerprint]uint32)
		reparse := func(body []Symbol) []Symbol {
			got, want := u.reparse(body), referenceReparse(byFP, u.gfps, body)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: re-parse of %v = %v, reference %v", seed, body, got, want)
			}
			if len(got) < len(body) {
				rewritten++
			}
			return got
		}
		for si, g := range shards {
			fps := mustFingerprint(t, g)
			order, err := g.TopoOrder()
			if err != nil {
				t.Fatalf("seed %d shard %d: %v", seed, si, err)
			}
			toGlobal := make([]uint32, len(g.Rules))
			translate := func(body []Symbol) []Symbol {
				out := make([]Symbol, len(body))
				for i, s := range body {
					if s.IsRule() {
						s = Rule(toGlobal[s.RuleIndex()])
					}
					out[i] = s
				}
				return out
			}
			for i := len(order) - 1; i >= 0; i-- {
				r := order[i]
				if r == 0 {
					continue
				}
				gid, ok := u.lookup(fps[r])
				if wantGID, wantOK := byFP[fps[r]]; gid != wantGID || ok != wantOK {
					t.Fatalf("seed %d: lookup = %d, %v; reference %d, %v", seed, gid, ok, wantGID, wantOK)
				}
				if !ok {
					gid = u.add(fps[r], reparse(translate(g.Rules[r])))
					byFP[fps[r]] = gid
				}
				toGlobal[r] = gid
			}
			reparse(translate(g.Rules[0]))
		}
	}
	if rewritten == 0 {
		t.Fatal("no re-parse rewrote anything: the grammars exercise nothing")
	}
	t.Logf("%d re-parses rewrote their body", rewritten)
}

// referenceRecompress is the digram-folding pass in its plainest form, two
// Go maps per round: digram → count and digram → the rule this round folded
// it into.
func referenceRecompress(ss *SharedSet) {
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

// cloneSet copies a set, every body into an array of its own.
func cloneSet(ss *SharedSet) *SharedSet {
	out := &SharedSet{NumWords: ss.NumWords, Shared: make([][]Symbol, len(ss.Shared))}
	for i, body := range ss.Shared {
		out.Shared[i] = slices.Clone(body)
	}
	for _, sh := range ss.Shards {
		sh.Root = slices.Clone(sh.Root)
		out.Shards = append(out.Shards, sh)
	}
	return out
}

// checkRecompress unifies the shards' rules as UnifyShards does, then runs
// recompress on the result and referenceRecompress on a copy of it, and
// fails unless the two folded forms are equal, rule numbering included.  It
// returns how many rules the pass made.
func checkRecompress(t testing.TB, shards []*Grammar, fps [][]Fingerprint) int {
	t.Helper()
	set, arena, err := unifyRules(shards, fps)
	if err != nil {
		t.Fatalf("unifyRules: %v", err)
	}
	want, before := cloneSet(set), len(set.Shared)
	set.recompress(arena)
	referenceRecompress(want)
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("recompress: %d shared rules, %d symbols; reference %d, %d",
			len(set.Shared), set.SymbolCount(), len(want.Shared), want.SymbolCount())
	}
	return len(set.Shared) - before
}
