package ntadoc

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc/internal/cfg"
)

var testDocs = []Document{
	{Name: "fableA", Text: "the quick brown fox jumps over the lazy dog. the quick brown fox naps."},
	{Name: "fableB", Text: "a lazy dog and a quick fox: the quick brown fox again!"},
	{Name: "fableC", Text: "entirely unrelated words appear here once."},
}

func compressDocs(t *testing.T) *Archive {
	t.Helper()
	a, err := Compress(testDocs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return a
}

func TestCompressStats(t *testing.T) {
	a := compressDocs(t)
	st := a.Stats()
	if st.Documents != 3 {
		t.Errorf("Documents = %d", st.Documents)
	}
	if st.Vocabulary == 0 || st.Tokens == 0 || st.Rules == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if st.CompressionRate <= 0 || st.CompressionRate > 1.2 {
		t.Errorf("CompressionRate = %f", st.CompressionRate)
	}
}

func TestDecompressRoundTrip(t *testing.T) {
	a := compressDocs(t)
	docs := a.Decompress()
	if len(docs) != len(testDocs) {
		t.Fatalf("got %d docs", len(docs))
	}
	var tkWords []string
	for i, doc := range docs {
		if doc.Name != testDocs[i].Name {
			t.Errorf("doc %d name = %q", i, doc.Name)
		}
		// Tokenization lowercases and strips punctuation; compare at the
		// token level.
		tkWords = strings.Fields(doc.Text)
		want := normalizeWords(testDocs[i].Text)
		if !reflect.DeepEqual(tkWords, want) {
			t.Errorf("doc %d round trip:\n got %v\nwant %v", i, tkWords, want)
		}
	}
}

func normalizeWords(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	out := fields[:0]
	for _, f := range fields {
		f = strings.Trim(f, ".,:!?()\"'")
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func TestArchiveSerializationRoundTrip(t *testing.T) {
	a := compressDocs(t)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	a2, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	if !reflect.DeepEqual(a.Decompress(), a2.Decompress()) {
		t.Error("round-tripped archive decompresses differently")
	}
	if !reflect.DeepEqual(a.DocumentNames(), a2.DocumentNames()) {
		t.Error("document names lost")
	}
}

// buildTag is the build tag of an N-TADOC engine over a.
func buildTag(t *testing.T, a *Archive) uint32 {
	t.Helper()
	eng, err := NewEngine(a, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	return eng.BuildTag()
}

// checkStoredTag checks the build tag an archive records is its shared
// table's checksum as computed afresh.
func checkStoredTag(t *testing.T, what string, a *Archive) {
	t.Helper()
	if want := a.shared.Checksum(); a.tag != want {
		t.Errorf("%s archive records tag %08x, its shared table's checksum is %08x", what, a.tag, want)
	}
}

// TestOneShardArchiveIsTagged checks a K = 1 archive is a shard set like any
// other: it serializes the shared-table container, its engine's build tag is
// the shared table's checksum and not zero, and a WriteTo → ReadArchive
// round trip keeps the grammar engines build from and the tag.  The tag is
// recorded once per archive — compressed, read, or folded after appends, by
// NewEngine or by WriteTo — and is always the checksum.
func TestOneShardArchiveIsTagged(t *testing.T) {
	a := compressDocs(t)
	checkStoredTag(t, "compressed", a)
	tag := buildTag(t, a)
	if tag == 0 || tag != a.shared.Checksum() {
		t.Fatalf("K = 1 build tag %08x, want the shared-table checksum %08x", tag, a.shared.Checksum())
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if magic := string(buf.Bytes()[8:16]); magic != "NTDCSHD2" {
		t.Fatalf("K = 1 grammar section magic %q, want NTDCSHD2", magic)
	}
	a2, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	if a2.NumShards() != 1 || !reflect.DeepEqual(a2.shards, a.shards) {
		t.Fatal("reloaded K = 1 archive builds engines from a different grammar")
	}
	if got := buildTag(t, a2); got != tag {
		t.Fatalf("reloaded build tag %08x, want %08x", got, tag)
	}
	checkStoredTag(t, "read", a2)

	eng, err := NewEngine(a2, Options{IngestCapacity: 1 << 20})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Append(liveDocs); err != nil {
		t.Fatalf("Append: %v", err)
	}
	eng.Close()
	var appended bytes.Buffer
	if _, err := a2.WriteTo(&appended); err != nil {
		t.Fatalf("WriteTo with appended documents: %v", err)
	}
	folded := buildTag(t, a2)
	if folded == tag {
		t.Fatalf("folding appended documents kept the base's tag %08x", tag)
	}
	checkStoredTag(t, "folded", a2)
	a3, err := ReadArchive(bytes.NewReader(appended.Bytes()))
	if err != nil {
		t.Fatalf("ReadArchive of an appended-to archive: %v", err)
	}
	checkStoredTag(t, "written folded", a3)
	if a3.tag != folded {
		t.Fatalf("archive written folded reads with tag %08x, NewEngine's fold has %08x", a3.tag, folded)
	}
}

// withSectionMagic returns a copy of a serialized archive whose grammar
// section opens with magic instead.
func withSectionMagic(archive []byte, magic string) []byte {
	raw := bytes.Clone(archive)
	copy(raw[8:], magic) // the section's magic, after the length prefix
	return raw
}

// TestReadArchiveRefusesRetiredSections checks the grammar sections of
// retired formats — the per-shard container nothing has written since shards
// began sharing one rule table, the delta container appended-to archives were
// written as, and a bare grammar, the section of K = 1 archives before every
// archive became a shard set — are refused as what they are, old and not
// corrupt, with the remedy in the error, while a section with any other
// magic is a parse error that does not say to recompress.
func TestReadArchiveRefusesRetiredSections(t *testing.T) {
	a, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	for _, tc := range []struct {
		name    string
		archive []byte
	}{
		{"NTDCSHD1", withSectionMagic(buf.Bytes(), "NTDCSHD1")},
		{"NTDCDLT1", withSectionMagic(buf.Bytes(), "NTDCDLT1")},
		{"NTDCCFG1", withSectionMagic(buf.Bytes(), "NTDCCFG1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadArchive(bytes.NewReader(tc.archive))
			if err == nil || !strings.Contains(err.Error(), "recompress") {
				t.Errorf("ReadArchive of an %s section: err = %v, want one that says to recompress", tc.name, err)
			}
		})
	}
	_, err = ReadArchive(bytes.NewReader(withSectionMagic(buf.Bytes(), "NTDCXXX9")))
	if !errors.Is(err, cfg.ErrInvalid) || strings.Contains(err.Error(), "recompress") {
		t.Errorf("ReadArchive of an unknown section: err = %v, want cfg.ErrInvalid without a remedy", err)
	}
}

func TestReadArchiveRejectsGarbage(t *testing.T) {
	if _, err := ReadArchive(bytes.NewReader([]byte("not an archive"))); err == nil {
		t.Error("expected error")
	}
}

func TestEnginesAgreeOnAllTasks(t *testing.T) {
	a := compressDocs(t)
	dram, err := NewEngine(a, Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("DRAM engine: %v", err)
	}
	nvmEng, err := NewEngine(a, Options{Medium: MediumNVM})
	if err != nil {
		t.Fatalf("NVM engine: %v", err)
	}
	defer nvmEng.Close()

	wc1, err := dram.WordCount()
	if err != nil {
		t.Fatalf("DRAM WordCount: %v", err)
	}
	wc2, err := nvmEng.WordCount()
	if err != nil {
		t.Fatalf("NVM WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc1, wc2) {
		t.Error("word counts disagree across engines")
	}
	if wc1["the"] != 4 || wc1["fox"] != 4 {
		t.Errorf("counts: the=%d fox=%d", wc1["the"], wc1["fox"])
	}

	s1, _ := dram.Sort()
	s2, _ := nvmEng.Sort()
	if !reflect.DeepEqual(s1, s2) {
		t.Error("sort disagrees")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i-1].Term >= s1[i].Term {
			t.Fatalf("sort not alphabetical at %d: %q >= %q", i, s1[i-1].Term, s1[i].Term)
		}
	}

	tv1, _ := dram.TermVectors(3)
	tv2, _ := nvmEng.TermVectors(3)
	if !reflect.DeepEqual(tv1, tv2) {
		t.Error("term vectors disagree")
	}

	inv1, _ := dram.InvertedIndex()
	inv2, _ := nvmEng.InvertedIndex()
	if !reflect.DeepEqual(inv1, inv2) {
		t.Error("inverted indexes disagree")
	}
	if got := inv1["fox"]; !reflect.DeepEqual(got, []string{"fableA", "fableB"}) {
		t.Errorf("fox postings = %v", got)
	}

	sc1, _ := dram.SequenceCount()
	sc2, _ := nvmEng.SequenceCount()
	if !reflect.DeepEqual(sc1, sc2) {
		t.Error("sequence counts disagree")
	}
	if sc1["the quick brown"] != 3 {
		t.Errorf("sequence 'the quick brown' = %d", sc1["the quick brown"])
	}

	rii1, _ := dram.RankedInvertedIndex()
	rii2, _ := nvmEng.RankedInvertedIndex()
	if !reflect.DeepEqual(rii1, rii2) {
		t.Error("ranked inverted indexes disagree")
	}
	if postings := rii1["the quick brown"]; len(postings) != 2 ||
		postings[0].Doc != "fableA" || postings[0].Count != 2 {
		t.Errorf("'the quick brown' postings = %v", postings)
	}
}

func TestNoSequencesOption(t *testing.T) {
	a := compressDocs(t)
	e, err := NewEngine(a, Options{NoSequences: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	if _, err := e.SequenceCount(); err == nil {
		t.Error("sequence task should fail without sequence support")
	}
	if _, err := e.WordCount(); err != nil {
		t.Errorf("WordCount: %v", err)
	}
}

func TestSSDAndHDDEngines(t *testing.T) {
	a := compressDocs(t)
	for _, m := range []Medium{MediumSSD, MediumHDD} {
		e, err := NewEngine(a, Options{Medium: m, NoSequences: true})
		if err != nil {
			t.Fatalf("medium %d: %v", m, err)
		}
		wc, err := e.WordCount()
		if err != nil || wc["fox"] != 4 {
			t.Errorf("medium %d: fox = %d, %v", m, wc["fox"], err)
		}
		e.Close()
	}
}

func TestOperationLevelEngine(t *testing.T) {
	a := compressDocs(t)
	e, err := NewEngine(a, Options{Persistence: OperationLevel, NoSequences: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	wc, err := e.WordCount()
	if err != nil || wc["the"] != 4 {
		t.Errorf("op-level WordCount: the=%d, %v", wc["the"], err)
	}
}

func TestTopTerms(t *testing.T) {
	a := compressDocs(t)
	e, err := NewEngine(a, Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	top, err := e.TopTerms(2)
	if err != nil {
		t.Fatalf("TopTerms: %v", err)
	}
	// fox, quick, and the all occur 4 times; alphabetical tie-break puts
	// fox then quick first.
	if len(top) != 2 || top[0].Term != "fox" || top[1].Term != "quick" || top[0].Count != 4 {
		t.Errorf("TopTerms = %v", top)
	}
}

func TestPhaseTimesAndFootprint(t *testing.T) {
	a := compressDocs(t)
	e, err := NewEngine(a, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	if _, err := e.WordCount(); err != nil {
		t.Fatal(err)
	}
	init, trav := e.PhaseTimes()
	if init <= 0 || trav <= 0 {
		t.Errorf("phase times = %v, %v", init, trav)
	}
	dev, dram := e.MemoryFootprint()
	if dev <= 0 || dram <= 0 {
		t.Errorf("footprint = %d, %d", dev, dram)
	}

	dramEng, _ := NewEngine(a, Options{Medium: MediumDRAM})
	dramEng.WordCount()
	dev2, dram2 := dramEng.MemoryFootprint()
	if dev2 != 0 || dram2 <= 0 {
		t.Errorf("DRAM engine footprint = %d, %d", dev2, dram2)
	}
}

func TestCompressEmptyAndSingle(t *testing.T) {
	a, err := Compress(nil)
	if err != nil {
		t.Fatalf("Compress(nil): %v", err)
	}
	if st := a.Stats(); st.Documents != 0 {
		t.Errorf("Documents = %d", st.Documents)
	}
	a2, err := Compress([]Document{{Name: "one", Text: "hello"}})
	if err != nil {
		t.Fatalf("Compress(single): %v", err)
	}
	e, err := NewEngine(a2, Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatal(err)
	}
	wc, _ := e.WordCount()
	if wc["hello"] != 1 {
		t.Errorf("hello = %d", wc["hello"])
	}
}

func TestFileBackedPool(t *testing.T) {
	a := compressDocs(t)
	path := t.TempDir() + "/pool.nvm"
	e, err := NewEngine(a, Options{PoolPath: path, NoSequences: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.WordCount(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
