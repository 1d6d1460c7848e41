package ntadoc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc/internal/dict"
)

// Fuzz targets for the three on-disk parsers.  They assert the parser
// contract: arbitrary input either fails cleanly or yields a structurally
// valid object, and valid serializations round-trip.  Run longer with
// `go test -fuzz FuzzReadArchive`.

func FuzzReadArchive(f *testing.F) {
	// Seed with a valid archive and a few mutations.
	a, err := Compress([]Document{
		{Name: "x", Text: "to be or not to be that is the question"},
		{Name: "y", Text: "to be or not to be whatever"},
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	a.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("NTDCCFG1 garbage"))
	trunc := buf.Bytes()[:buf.Len()/2]
	f.Add(trunc)
	legacy := bytes.Clone(buf.Bytes())
	copy(legacy[8:], "NTDCSHD1") // the section magic of the container no longer read
	f.Add(legacy)
	// An appended-to archive writes the NTDCDLT1 container: the base section
	// as it was, then the delta grammar over the appended documents.
	eng, err := NewEngine(a, Options{IngestCapacity: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	err = eng.Append([]Document{{Name: "z", Text: "to be is to do or not to be"}})
	if err = errors.Join(err, eng.Close()); err != nil {
		f.Fatal(err)
	}
	var delta bytes.Buffer
	if _, err := a.WriteTo(&delta); err != nil {
		f.Fatal(err)
	}
	if !bytes.Contains(delta.Bytes(), []byte("NTDCDLT1")) {
		f.Fatal("appended-to archive wrote no NTDCDLT1 container")
	}
	f.Add(delta.Bytes())
	f.Add(delta.Bytes()[:delta.Len()-delta.Len()/4])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		// Anything accepted must be internally consistent: stats compute
		// and decompression terminates with the declared document count.
		st := got.Stats()
		docs := got.Decompress()
		if len(docs) != st.Documents {
			t.Fatalf("decompressed %d docs, stats say %d", len(docs), st.Documents)
		}
	})
}

func FuzzCompressRoundTrip(f *testing.F) {
	f.Add("hello world hello world", "second doc here")
	f.Add("", "")
	f.Add("a a a a a a a a", "b")
	f.Add("punct!!! and, (more) punct...", "UPPER lower MiXeD")

	f.Fuzz(func(t *testing.T, text1, text2 string) {
		if len(text1)+len(text2) > 1<<14 {
			t.Skip("cap input size")
		}
		a, err := Compress([]Document{{Name: "1", Text: text1}, {Name: "2", Text: text2}})
		if err != nil {
			t.Fatalf("Compress: %v", err)
		}
		docs := a.Decompress()
		if len(docs) != 2 {
			t.Fatalf("decompressed %d docs", len(docs))
		}
		// Round trip is exact at the token level.
		for i, orig := range []string{text1, text2} {
			want := normalizeTokens(orig)
			got := strings.Fields(docs[i].Text)
			if len(got) != len(want) {
				t.Fatalf("doc %d: %d tokens, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("doc %d token %d: %q != %q", i, j, got[j], want[j])
				}
			}
		}
		// Serialization round-trips.
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if _, err := ReadArchive(&buf); err != nil {
			t.Fatalf("ReadArchive of own output: %v", err)
		}
	})
}

// normalizeTokens is the fuzz oracle for the default tokenizer: it reuses
// the tokenizer itself, so the property under test is the compression round
// trip, not tokenizer equivalence.
func normalizeTokens(text string) []string {
	var tk dict.Tokenizer
	return tk.Split(text)
}
