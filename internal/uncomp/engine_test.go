package uncomp

import (
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

func load(t testing.TB, files [][]uint32, d *dict.Dictionary) (*Engine, *nvm.SimDevice) {
	t.Helper()
	dev := nvm.New(nvm.KindNVM, RequiredSize(files)+4096)
	t.Cleanup(func() { dev.Discard() })
	e, err := Load(dev, d, files)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return e, dev
}

// Full per-task reference coverage for this scan engine lives in the
// cross-executor differential test (internal/analytics/differential_test.go).

func TestLoadRejectsSmallDevice(t *testing.T) {
	files := [][]uint32{{1, 2, 3, 4, 5, 6, 7, 8}}
	dev := nvm.New(nvm.KindNVM, 4)
	defer dev.Discard()
	if _, err := Load(dev, dict.New(), files); err == nil {
		t.Error("expected size error")
	}
}

func TestEmptyCorpus(t *testing.T) {
	e, _ := load(t, nil, dict.New())
	wc, err := analytics.WordCount(e)
	if err != nil || len(wc) != 0 {
		t.Errorf("WordCount = %v, %v", wc, err)
	}
	if e.NumFiles() != 0 || e.TotalTokens() != 0 {
		t.Errorf("counts = %d files, %d tokens", e.NumFiles(), e.TotalTokens())
	}
}

func TestEmptyFiles(t *testing.T) {
	files := [][]uint32{{}, {1, 1, 2}, {}}
	d := dict.New()
	for _, w := range []string{"a", "b", "c"} {
		d.Intern(w)
	}
	e, _ := load(t, files, d)
	inv, err := analytics.InvertedIndex(e)
	if err != nil {
		t.Fatalf("InvertedIndex: %v", err)
	}
	want := map[uint32][]uint32{1: {1}, 2: {1}}
	if !reflect.DeepEqual(inv, want) {
		t.Errorf("InvertedIndex = %v", inv)
	}
}

func TestScanChargesDeviceTraffic(t *testing.T) {
	spec := datagen.Spec{
		Name: "u2", Seed: 5, Files: 2, TokensPer: 5000, Vocab: 40,
		ZipfS: 1.3, Phrases: 10, PhraseLen: 4, PhraseProb: 0.5,
	}
	files, d := spec.GenerateWithDict()
	e, dev := load(t, files, d)
	dev.ResetStats()
	if _, err := analytics.WordCount(e); err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	st := dev.Stats()
	if st.BytesRead < RequiredSize(files) {
		t.Errorf("scan read %d bytes, corpus is %d", st.BytesRead, RequiredSize(files))
	}
	if st.ModeledNanos <= 0 {
		t.Error("no modeled cost charged")
	}
}

func TestSequencesCrossBatchBoundaries(t *testing.T) {
	// A file larger than the scan batch must still count every window.
	n := 20000
	f := make([]uint32, n)
	for i := range f {
		f[i] = uint32(i % 7)
	}
	e, _ := load(t, [][]uint32{f}, dict.New())
	sc, err := analytics.SequenceCount(e)
	if err != nil {
		t.Fatalf("SequenceCount: %v", err)
	}
	var total uint64
	for _, c := range sc {
		total += c
	}
	if want := uint64(n - analytics.SeqLen + 1); total != want {
		t.Errorf("total windows = %d, want %d", total, want)
	}
}
