package sequitur

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/datagen"
)

// checkAgainstReference holds Infer, and a DeltaBuilder snapshotted after
// every cadence documents, to the pointer-linked reference builder: the
// same grammar, rule numbering included, at every snapshot.  It also checks
// the arena bound maxSymbols rests on: at most two nodes plus seven per
// appended symbol.
func checkAgainstReference(t *testing.T, name string, files [][]uint32, numWords uint32, cadence int) {
	t.Helper()
	g, err := Infer(files, numWords)
	if err != nil {
		t.Fatalf("%s: Infer: %v", name, err)
	}
	if want := refInfer(files, numWords); !reflect.DeepEqual(g, want) {
		t.Fatalf("%s: Infer differs from the reference\n got %v\nwant %v", name, g.Rules, want.Rules)
	}
	db, _ := NewDeltaBuilder(numWords, nil)
	ref := newRefBuilder()
	for i, f := range files {
		if err := db.AppendDoc(f, numWords); err != nil {
			t.Fatalf("%s: AppendDoc %d: %v", name, i, err)
		}
		ref.appendFile(f)
		if (i+1)%cadence == 0 || i == len(files)-1 {
			if got, want := db.Grammar(), ref.finish(numWords); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: snapshot after %d documents differs from the reference\n got %v\nwant %v", name, i+1, got.Rules, want.Rules)
			}
		}
	}
	if n := int64(len(db.b.nodes)); n > 2+7*db.b.symbols {
		t.Fatalf("%s: %d arena nodes for %d symbols", name, n, db.b.symbols)
	}
}

// quickStreams are the shapes the round-trip property tests draw: up to six
// files of up to 255 tokens over a four-word vocabulary (empty files
// included), and Zipf-skewed single files.
func quickStreams(seed int64) [][]uint32 {
	r := rand.New(rand.NewSource(seed))
	if seed%2 == 1 {
		zipf := rand.NewZipf(r, 1.3, 1.0, 9)
		ids := make([]uint32, 200+r.Intn(800))
		for i := range ids {
			ids[i] = uint32(zipf.Uint64()) % 4
		}
		return [][]uint32{ids}
	}
	files := make([][]uint32, r.Intn(7))
	for i := range files {
		files[i] = make([]uint32, r.Intn(256))
		for j := range files[i] {
			files[i][j] = uint32(r.Intn(4))
		}
	}
	return files
}

func TestInferMatchesReference(t *testing.T) {
	for _, in := range [][]string{
		{"aaa"}, {"aaaa"}, {"aaaaaa"}, {"abababab"}, {"abcbcabcbc"},
		{"abcabc", "", "abc"}, {"abab", "abab", "abab"}, {""}, {"", ""},
	} {
		files, n := encode(in...)
		checkAgainstReference(t, fmt.Sprint(in), files, n, 1)
	}
	for seed := int64(0); seed < 300; seed++ {
		checkAgainstReference(t, fmt.Sprintf("quick seed %d", seed), quickStreams(seed), 4, 1+int(seed%3))
	}
	for _, spec := range datagen.Datasets {
		if testing.Short() || raceEnabled {
			spec = spec.Scaled(0.1)
		}
		checkAgainstReference(t, "dataset "+spec.Name, spec.Generate(), uint32(spec.Vocab), 8)
	}
}

// FuzzInferMatchesReference decodes its input into files (0xff ends a
// file) over a vocabulary of 1..32 words and checks Infer and DeltaBuilder
// snapshots taken every 1..16 documents against the reference.
func FuzzInferMatchesReference(f *testing.F) {
	f.Add([]byte("abcabc\xffabc\xff\xffabab"), uint8(3), uint8(0))
	f.Add([]byte("aaaaaaa\xffaaaa"), uint8(1), uint8(1))
	f.Add([]byte("the cat sat on the mat the cat sat on the hat"), uint8(31), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, vocab, cadence uint8) {
		if len(data) > 4096 {
			// Each snapshot walks the grammar so far: keep the fuzzer's
			// grown inputs from turning into quadratic runs.
			data = data[:4096]
		}
		numWords := 1 + uint32(vocab)%32
		var files [][]uint32
		for _, part := range bytes.Split(data, []byte{0xff}) {
			ids := make([]uint32, len(part))
			for i, c := range part {
				ids[i] = uint32(c) % numWords
			}
			files = append(files, ids)
		}
		checkAgainstReference(t, "fuzz", files, numWords, 1+int(cadence)%16)
	})
}

// TestInferAllocations bounds Infer's allocations on dataset C: the arena,
// digram table and finish's slices grow by doubling, so the count follows
// the number of rules emitted, not the 480,000 tokens.  One heap node per
// symbol made 1,255,038.
func TestInferAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec := datagen.DatasetC
	files := spec.Generate()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Infer(files, uint32(spec.Vocab)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20_000 {
		t.Errorf("Infer on dataset C: %.0f allocations, budget 20,000", allocs)
	}
}

// TestSymbolLimit lowers the symbol bound that keeps arena indices inside
// int32: a file that would cross it is refused whole, by Infer and by
// AppendDoc, and the delta builder goes on from where it was.
func TestSymbolLimit(t *testing.T) {
	defer func(m int64) { maxSymbols = m }(maxSymbols)
	maxSymbols = 10
	files, n := encode("abcab", "abcab")
	if _, err := Infer(files, n); err == nil {
		t.Fatal("Infer over 12 symbols with a bound of 10 succeeded")
	}
	db, _ := NewDeltaBuilder(n, nil)
	if err := db.AppendDoc(files[0], n); err != nil {
		t.Fatal(err)
	}
	before := db.Grammar()
	if err := db.AppendDoc(files[1], n); err == nil {
		t.Fatal("AppendDoc past the bound succeeded")
	}
	if db.Docs() != 1 || !reflect.DeepEqual(db.Grammar(), before) {
		t.Fatal("a refused document changed the delta grammar")
	}
	if err := db.AppendDoc([]uint32{uint32(n)}, n); err == nil || db.Docs() != 1 {
		t.Fatal("a token beyond the vocabulary was appended")
	}
	if err := db.AppendDoc(files[1][:3], n); err != nil || db.Docs() != 2 {
		t.Fatalf("AppendDoc within the bound: %v", err)
	}
	want, _ := Infer([][]uint32{files[0], files[1][:3]}, n)
	if !reflect.DeepEqual(db.Grammar(), want) {
		t.Fatal("the delta grammar after a refusal differs from Infer")
	}
}

// BenchmarkInfer compresses each dataset whole: the set-up cost every
// archive pays per shard before unification.
func BenchmarkInfer(b *testing.B) {
	for _, spec := range datagen.Datasets {
		files := spec.Generate()
		tokens := tokenCount(files)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Infer(files, uint32(spec.Vocab)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tokens*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mtok/s")
		})
	}
}

// BenchmarkDeltaAppend is the ingest shape on dataset B: documents arrive
// in batches of 8, each batch followed by a Grammar snapshot (what an
// engine publishes per append), and the builder starts over every 64
// documents, where the engine's compactor folds the delta away.
func BenchmarkDeltaAppend(b *testing.B) {
	spec := datagen.DatasetB
	files := spec.Generate()
	numWords := uint32(spec.Vocab)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var db *DeltaBuilder
		for d, f := range files {
			if d%64 == 0 {
				db, _ = NewDeltaBuilder(numWords, nil)
			}
			if err := db.AppendDoc(f, numWords); err != nil {
				b.Fatal(err)
			}
			if d%8 == 7 {
				_ = db.Grammar()
			}
		}
	}
	b.ReportMetric(tokenCount(files)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mtok/s")
}

func tokenCount(files [][]uint32) float64 {
	n := 0
	for _, f := range files {
		n += len(f)
	}
	return float64(n)
}
