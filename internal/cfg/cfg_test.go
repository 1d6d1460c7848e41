package cfg

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// paperGrammar builds the grammar of the paper's Figure 1:
//
//	R0 -> R1 w5 R1 |0| w6 R2 |1|
//	R1 -> R2 w3 w4
//	R2 -> w1 w2
//
// (file A = "w1 w2 w3 w4 w5 w1 w2 w3 w4", file B = "w6 w1 w2"; word IDs are
// 1-based in the figure, 0-based here.)
func paperGrammar() *Grammar {
	return &Grammar{
		Rules: [][]Symbol{
			{Rule(1), Word(4), Rule(1), Sep(0), Word(5), Rule(2), Sep(1)},
			{Rule(2), Word(2), Word(3)},
			{Word(0), Word(1)},
		},
		NumWords: 6,
		NumFiles: 2,
		Files:    []string{"fileA", "fileB"},
	}
}

func TestSymbolClasses(t *testing.T) {
	w, r, s := Word(7), Rule(3), Sep(1)
	if !w.IsWord() || w.IsRule() || w.IsSep() {
		t.Errorf("word classification broken")
	}
	if !r.IsRule() || r.IsWord() || r.IsSep() {
		t.Errorf("rule classification broken")
	}
	if !s.IsSep() || s.IsWord() || s.IsRule() {
		t.Errorf("sep classification broken")
	}
	if w.WordID() != 7 || r.RuleIndex() != 3 || s.SepIndex() != 1 {
		t.Errorf("index extraction broken")
	}
	if w.String() != "w7" || r.String() != "R3" || s.String() != "|1|" {
		t.Errorf("String() = %q %q %q", w, r, s)
	}
}

func TestSymbolPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"word range": func() { Word(MaxWords) },
		"rule range": func() { Rule(MaxRules) },
		"sep range":  func() { Sep(MaxWords) },
		"not a word": func() { Rule(1).WordID() },
		"not a rule": func() { Word(1).RuleIndex() },
		"not a sep":  func() { Word(1).SepIndex() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestValidateAcceptsPaperGrammar(t *testing.T) {
	if err := paperGrammar().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]*Grammar{
		"no rules": {NumWords: 1},
		"missing rule ref": {
			Rules: [][]Symbol{{Rule(5)}}, NumWords: 1,
		},
		"sep outside root": {
			Rules:    [][]Symbol{{Rule(1), Sep(0)}, {Sep(1)}},
			NumWords: 1, NumFiles: 2,
		},
		"sep out of order": {
			Rules:    [][]Symbol{{Sep(1), Sep(0)}},
			NumWords: 1, NumFiles: 2,
		},
		"word beyond vocab": {
			Rules: [][]Symbol{{Word(10)}}, NumWords: 5,
		},
		"file count mismatch": {
			Rules: [][]Symbol{{Sep(0)}}, NumWords: 1, NumFiles: 3,
		},
		"name count mismatch": {
			Rules: [][]Symbol{{Sep(0)}}, NumWords: 1, NumFiles: 1,
			Files: []string{"a", "b"},
		},
		"cycle": {
			Rules:    [][]Symbol{{Rule(1)}, {Rule(2)}, {Rule(1)}},
			NumWords: 1,
		},
		"self cycle": {
			Rules:    [][]Symbol{{Rule(0)}},
			NumWords: 1,
		},
	}
	for name, g := range cases {
		if err := g.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Validate = %v, want ErrInvalid", name, err)
		}
	}
}

func TestTopoOrderParentsFirst(t *testing.T) {
	g := paperGrammar()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[uint32]int, len(order))
	for i, r := range order {
		pos[r] = i
	}
	if len(pos) != len(g.Rules) {
		t.Fatalf("order %v misses rules", order)
	}
	for ri, body := range g.Rules {
		for _, s := range body {
			if s.IsRule() && pos[uint32(ri)] > pos[s.RuleIndex()] {
				t.Errorf("R%d after child R%d in %v", ri, s.RuleIndex(), order)
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	g := paperGrammar()
	in, out := g.Degrees()
	// R0: refs R1 twice, R2 once -> out 3, in 0.
	// R1: refs R2 once -> out 1, in 2.
	// R2: out 0, in 2.
	wantIn := []uint32{0, 2, 2}
	wantOut := []uint32{3, 1, 0}
	if !reflect.DeepEqual(in, wantIn) || !reflect.DeepEqual(out, wantOut) {
		t.Errorf("Degrees = %v,%v; want %v,%v", in, out, wantIn, wantOut)
	}
}

func TestExpandFiles(t *testing.T) {
	g := paperGrammar()
	files := g.ExpandFiles()
	wantA := []uint32{0, 1, 2, 3, 4, 0, 1, 2, 3}
	wantB := []uint32{5, 0, 1}
	if len(files) != 2 || !reflect.DeepEqual(files[0], wantA) || !reflect.DeepEqual(files[1], wantB) {
		t.Errorf("ExpandFiles = %v", files)
	}
}

func TestComputeStats(t *testing.T) {
	g := paperGrammar()
	st := g.ComputeStats()
	if st.Rules != 3 || st.Files != 2 || st.Vocabulary != 6 {
		t.Errorf("Stats = %+v", st)
	}
	if st.BodySymbols != 7+3+2 {
		t.Errorf("BodySymbols = %d", st.BodySymbols)
	}
	if st.Expanded != 12 {
		t.Errorf("Expanded = %d, want 12", st.Expanded)
	}
}

// readGrammar deserializes a grammar written by WriteTo and validates it: the
// oracle of the WriteTo round trips below.  No archive holds this format, so
// nothing outside these tests reads it.
func readGrammar(b []byte) (*Grammar, error) {
	d := &decoder{b: b, what: "grammar"}
	if err := d.magic(cfgMagic); err != nil {
		return nil, err
	}
	numWords, err := d.uvarint("numWords")
	if err != nil {
		return nil, err
	}
	numFiles, err := d.uvarint("numFiles")
	if err != nil {
		return nil, err
	}
	numRules, err := d.count("rule count", MaxRules)
	if err != nil {
		return nil, err
	}
	if numWords > MaxWords || numFiles > MaxWords {
		return nil, d.errorf("absurd sizes words=%d files=%d", numWords, numFiles)
	}
	hasNames, err := d.next(1, "hasNames")
	if err != nil {
		return nil, err
	}
	g := &Grammar{
		NumWords: uint32(numWords),
		NumFiles: uint32(numFiles),
	}
	if hasNames[0] == 1 {
		if g.Files, err = d.names(numFiles); err != nil {
			return nil, err
		}
	}
	g.Rules = make([][]Symbol, numRules)
	for i := range g.Rules {
		if g.Rules[i], err = d.symbols("rule"); err != nil {
			return nil, err
		}
	}
	if _, err := d.checksum(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, withNames := range []bool{true, false} {
		g := paperGrammar()
		if !withNames {
			g.Files = nil
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		g2, err := readGrammar(buf.Bytes())
		if err != nil {
			t.Fatalf("readGrammar: %v", err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", g2, g)
		}
	}
}

func TestReadGrammarRejectsCorruption(t *testing.T) {
	g := paperGrammar()
	var buf bytes.Buffer
	g.WriteTo(&buf)
	raw := buf.Bytes()

	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":  func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c },
		"bit flip":   func(b []byte) []byte { c := clone(b); c[len(c)-8] ^= 0x01; return c },
		"truncated":  func(b []byte) []byte { return b[:len(b)-3] },
		"empty":      func(b []byte) []byte { return nil },
		"crc broken": func(b []byte) []byte { c := clone(b); c[len(c)-1] ^= 0xff; return c },
	} {
		if _, err := readGrammar(mutate(raw)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

func clone(b []byte) []byte { return append([]byte{}, b...) }

func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(bodies [][]uint16, vocabSeed uint16) bool {
		if len(bodies) == 0 {
			bodies = [][]uint16{{}}
		}
		if len(bodies) > 20 {
			bodies = bodies[:20]
		}
		vocab := uint32(vocabSeed)%100 + 1
		g := &Grammar{NumWords: vocab}
		for ri, raw := range bodies {
			var body []Symbol
			for _, v := range raw {
				switch v % 3 {
				case 0:
					body = append(body, Word(uint32(v)%vocab))
				case 1:
					// Only reference later rules to stay acyclic.
					if ri+1 < len(bodies) {
						body = append(body, Rule(uint32(ri+1)+uint32(v)%uint32(len(bodies)-ri-1)))
					}
				case 2:
					if ri == 0 {
						body = append(body, Sep(g.NumFiles))
						g.NumFiles++
					}
				}
			}
			g.Rules = append(g.Rules, body)
		}
		if g.Validate() != nil {
			return true // not a valid grammar; nothing to check
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		g2, err := readGrammar(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExpandDeepChain(t *testing.T) {
	// A 200k-deep rule chain must expand without exhausting the stack:
	// crafted archives control grammar shape.
	const depth = 200_000
	g := &Grammar{NumWords: 1}
	g.Rules = make([][]Symbol, depth)
	for i := 0; i < depth-1; i++ {
		g.Rules[i] = []Symbol{Rule(uint32(i + 1))}
	}
	g.Rules[depth-1] = []Symbol{Word(0)}
	out := g.Expand(0)
	if len(out) != 1 || out[0] != Word(0) {
		t.Fatalf("deep chain expansion = %v", out)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatalf("TopoOrder on deep chain: %v", err)
	}
}
