package cfg

import (
	"errors"
	"reflect"
	"sync"
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

func TestInternerConcurrent(t *testing.T) {
	it := NewInterner()
	fps := make([]Fingerprint, 64)
	for i := range fps {
		fps[i] = fpToken(uint64(i % 16)) // 16 distinct, heavy contention
	}
	var wg sync.WaitGroup
	novel := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, fp := range fps {
				if _, isNew := it.Intern(fp); isNew {
					novel[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if it.Len() != 16 {
		t.Fatalf("Len = %d, want 16 distinct", it.Len())
	}
	total := 0
	for _, n := range novel {
		total += n
	}
	if total != 16 {
		t.Fatalf("novel interns sum to %d, want 16", total)
	}
	// Re-interning resolves to a stable ID.
	id1, isNew := it.Intern(fps[0])
	if isNew {
		t.Fatal("re-intern reported novel")
	}
	id2, _ := it.Intern(fps[0])
	if id1 != id2 {
		t.Fatalf("unstable ID: %d then %d", id1, id2)
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
