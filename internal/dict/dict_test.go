package dict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	d := New()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	a2 := d.Intern("alpha")
	if a != 0 || b != 1 || a2 != a {
		t.Errorf("ids = %d, %d, %d", a, b, a2)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Word(a) != "alpha" || d.Word(b) != "beta" {
		t.Errorf("Word() mapping broken")
	}
}

func TestLookup(t *testing.T) {
	d := New()
	d.Intern("x")
	if id, ok := d.Lookup("x"); !ok || id != 0 {
		t.Errorf("Lookup(x) = %d, %v", id, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
}

func TestWordPanicsOnUnknownID(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.Word(5)
}

func TestZeroValueUsable(t *testing.T) {
	var d Dictionary
	if id := d.Intern("w"); id != 0 {
		t.Errorf("zero-value Intern = %d", id)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	d := New()
	for _, w := range []string{"the", "quick", "brown", "fox", "über", "日本語", ""} {
		d.Intern(w)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	d2 := New()
	if _, err := d2.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("Len = %d, want %d", d2.Len(), d.Len())
	}
	for i, w := range d.Words() {
		if d2.Word(uint32(i)) != w {
			t.Errorf("word %d = %q, want %q", i, d2.Word(uint32(i)), w)
		}
		if id, ok := d2.Lookup(w); !ok || id != uint32(i) {
			t.Errorf("Lookup(%q) = %d, %v", w, id, ok)
		}
	}
}

// readBack round-trips words through WriteTo and ReadFrom into a dictionary
// that has interned something else first, so the index ReadFrom discards
// is a stale one.
func readBack(t *testing.T, words ...string) *Dictionary {
	t.Helper()
	d := New()
	for _, w := range words {
		d.Intern(w)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	d2 := New()
	d2.Intern("stale")
	if _, err := d2.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return d2
}

// TestLazyIndexAfterReadFrom: ReadFrom leaves the word index to the first
// Lookup or Intern, which must index the words read, whichever comes first.
func TestLazyIndexAfterReadFrom(t *testing.T) {
	words := []string{"the", "quick", "brown", "fox"}
	d := readBack(t, words...)
	if _, ok := d.Lookup("stale"); ok {
		t.Error("a word interned before ReadFrom is still indexed")
	}
	for i, w := range words {
		if id, ok := d.Lookup(w); !ok || id != uint32(i) {
			t.Errorf("Lookup(%q) = %d, %v; want %d", w, id, ok, i)
		}
	}
	if id := d.Intern("fox"); id != 3 {
		t.Errorf("Intern(fox) after ReadFrom = %d, want 3", id)
	}
	if id := d.Intern("jumps"); id != 4 {
		t.Errorf("Intern(jumps) = %d, want 4", id)
	}
	// Intern first: it must index the words read, not start an empty map.
	d = readBack(t, words...)
	if id := d.Intern("brown"); id != 2 {
		t.Errorf("Intern(brown) as the first call after ReadFrom = %d, want 2", id)
	}
	if id := d.Intern("jumps"); id != 4 {
		t.Errorf("Intern(jumps) = %d, want 4", id)
	}
	if id, ok := d.Lookup("jumps"); !ok || id != 4 || d.Len() != 5 {
		t.Errorf("Lookup(jumps) = %d, %v with %d words", id, ok, d.Len())
	}
}

// TestConcurrentLookupsBuildOneIndex races the first Lookups on a freshly
// read dictionary, where each may find the index unbuilt; run under -race.
func TestConcurrentLookupsBuildOneIndex(t *testing.T) {
	words := make([]string, 500)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	d := readBack(t, words...)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(words); i += 7 {
				if id, ok := d.Lookup(words[i]); !ok || id != uint32(i) {
					errs <- fmt.Sprintf("Lookup(%q) = %d, %v", words[i], id, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestReadFromRejectsCorruption(t *testing.T) {
	d := New()
	d.Intern("hello")
	d.Intern("world")
	var buf bytes.Buffer
	d.WriteTo(&buf)

	// Bad magic.
	bad := append([]byte{}, buf.Bytes()...)
	bad[0] ^= 0xff
	if _, err := New().ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v", err)
	}
	// Flipped payload byte.
	bad = append([]byte{}, buf.Bytes()...)
	bad[12] ^= 0xff
	if _, err := New().ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte: %v", err)
	}
	// Truncated.
	if _, err := New().ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: %v", err)
	}
	// Empty.
	if _, err := New().ReadFrom(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty: %v", err)
	}
}

// TestReadFromHugeCountFailsFast declares two billion words over a body of
// three: the read must fail at the end of the body, having allocated for the
// bytes that arrived, not for the count.
func TestReadFromHugeCountFailsFast(t *testing.T) {
	raw := binary.AppendUvarint([]byte(magic), 1<<31)
	for _, w := range []string{"the", "quick", "fox"} {
		raw = append(binary.AppendUvarint(raw, uint64(len(w))), w...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New().ReadFrom(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a %d-byte truncated dictionary allocated %d bytes", len(raw), n)
	}
}

func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		d := New()
		for _, w := range words {
			if len(w) > 100 {
				w = w[:100]
			}
			d.Intern(w)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		d2 := New()
		if _, err := d2.ReadFrom(&buf); err != nil {
			return false
		}
		if d2.Len() != d.Len() {
			return false
		}
		for i, w := range d.Words() {
			if d2.Word(uint32(i)) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTokenizerNormalize(t *testing.T) {
	var tk Tokenizer
	cases := map[string]string{
		"Hello":    "hello",
		"world,":   "world",
		"(quoted)": "quoted",
		"it's":     "it's", // interior punctuation kept
		"!!!":      "",
		"A-B":      "a-b",
	}
	for in, want := range cases {
		if got := tk.Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTokenizerOptions(t *testing.T) {
	tk := Tokenizer{KeepCase: true, KeepPunct: true}
	if got := tk.Normalize("Hello,"); got != "Hello," {
		t.Errorf("KeepCase+KeepPunct Normalize = %q", got)
	}
}

func TestTokenizerSplit(t *testing.T) {
	var tk Tokenizer
	got := tk.Split("The quick, brown FOX!  ...  jumps")
	want := []string{"the", "quick", "brown", "fox", "jumps"}
	if len(got) != len(want) {
		t.Fatalf("Split = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Split[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEncodeStreamMatchesString(t *testing.T) {
	text := "a b c a b a\nnew line tokens a"
	var tk Tokenizer
	d1, d2 := New(), New()
	fromString := tk.EncodeString(d1, text)
	fromReader, err := tk.Encode(d2, strings.NewReader(text))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(fromString) != len(fromReader) {
		t.Fatalf("lengths differ: %d vs %d", len(fromString), len(fromReader))
	}
	for i := range fromString {
		if fromString[i] != fromReader[i] {
			t.Errorf("id %d differs: %d vs %d", i, fromString[i], fromReader[i])
		}
	}
	if d1.Len() != d2.Len() {
		t.Errorf("vocab sizes differ: %d vs %d", d1.Len(), d2.Len())
	}
}

func TestEncodeIDStability(t *testing.T) {
	var tk Tokenizer
	d := New()
	ids := tk.EncodeString(d, "a b a c a")
	want := []uint32{0, 1, 0, 2, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestAlphabeticalExtends checks the rank table against a from-scratch string
// sort at every vocabulary size it is asked for, growing the dictionary in
// between — so every table but the first is an extension of the one before —
// and that readers racing an extension see a consistent table.
func TestAlphabeticalExtends(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(3))
	check := func() {
		t.Helper()
		words := d.Words()
		rank, order := d.Alphabetical()
		if len(rank) < len(words) || len(order) != len(rank) {
			t.Fatalf("table of %d/%d entries for %d words", len(rank), len(order), len(words))
		}
		want := make([]uint32, len(order))
		for i := range want {
			want[i] = uint32(i)
		}
		all := d.Words()[:len(order)]
		slices.SortFunc(want, func(a, b uint32) int { return strings.Compare(all[a], all[b]) })
		if !slices.Equal(order, want) {
			t.Fatalf("order at %d words differs from a string sort", len(order))
		}
		for r, id := range order {
			if rank[id] != uint32(r) {
				t.Fatalf("rank[%d] = %d, want %d", id, rank[id], r)
			}
		}
	}
	check() // empty
	for round := 0; round < 6; round++ {
		for n := rng.Intn(40); n >= 0; n-- {
			d.Intern(fmt.Sprintf("%c%x", 'a'+rng.Intn(5), rng.Intn(1<<16)))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); d.Alphabetical() }()
		}
		check()
		wg.Wait()
	}
}
