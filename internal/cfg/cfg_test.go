package cfg

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// TestEncodedSize pins the compressed grammar format's size of the paper's
// example grammar, with and without its file names: the bytes the format's
// writer produced, magic, varints, names and CRC included.
func TestEncodedSize(t *testing.T) {
	g := paperGrammar()
	if n := g.EncodedSize(); n != 67 {
		t.Errorf("with names: %d bytes, want 67", n)
	}
	g.Files = nil
	if n := g.EncodedSize(); n != 55 {
		t.Errorf("without names: %d bytes, want 55", n)
	}
}

// encodeGrammar writes the grammar in the compressed grammar format, field
// by field as EncodedSize documents it, CRC included: the oracle of
// TestQuickEncodedSize.
func encodeGrammar(g *Grammar) []byte {
	b := []byte("NTDCCFG1")
	b = binary.AppendUvarint(b, uint64(g.NumWords))
	b = binary.AppendUvarint(b, uint64(g.NumFiles))
	b = binary.AppendUvarint(b, uint64(len(g.Rules)))
	if g.Files == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, name := range g.Files {
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = append(b, name...)
		}
	}
	for _, body := range g.Rules {
		b = binary.AppendUvarint(b, uint64(len(body)))
		for _, s := range body {
			b = binary.AppendUvarint(b, uint64(s))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestQuickEncodedSize checks EncodedSize against the bytes encodeGrammar
// writes, over arbitrary symbols (every class, multi-byte varints), counts
// and file names, with and without the names.
func TestQuickEncodedSize(t *testing.T) {
	f := func(bodies [][]uint32, numWords, numFiles uint32, files []string, withNames bool) bool {
		g := &Grammar{NumWords: numWords, NumFiles: numFiles}
		if withNames {
			g.Files = append([]string{}, files...)
		}
		for _, raw := range bodies {
			body := make([]Symbol, len(raw))
			for i, v := range raw {
				body[i] = Symbol(v)
			}
			g.Rules = append(g.Rules, body)
		}
		return g.EncodedSize() == int64(len(encodeGrammar(g)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if g := paperGrammar(); g.EncodedSize() != int64(len(encodeGrammar(g))) {
		t.Errorf("paper grammar: EncodedSize %d, encoding %d bytes", g.EncodedSize(), len(encodeGrammar(g)))
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
