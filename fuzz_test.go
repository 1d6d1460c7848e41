package ntadoc

import (
	"bytes"
	"errors"
	"reflect"
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
	// The sections of retired formats, refused by name: the per-shard
	// container, the delta container and a bare NTDCCFG1 grammar.
	f.Add(withSectionMagic(buf.Bytes(), "NTDCSHD1"))
	f.Add(withSectionMagic(buf.Bytes(), "NTDCDLT1"))
	f.Add(withSectionMagic(buf.Bytes(), "NTDCCFG1"))
	// An appended-to archive is written folded, as one more shared-table set.
	eng, err := NewEngine(a, Options{IngestCapacity: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	err = eng.Append([]Document{{Name: "z", Text: "to be is to do or not to be"}})
	if err = errors.Join(err, eng.Close()); err != nil {
		f.Fatal(err)
	}
	var appended bytes.Buffer
	if _, err := a.WriteTo(&appended); err != nil {
		f.Fatal(err)
	}
	if magic := string(appended.Bytes()[8:16]); magic != "NTDCSHD2" {
		f.Fatalf("appended-to archive written as %q, want NTDCSHD2", magic)
	}
	f.Add(appended.Bytes())
	f.Add(appended.Bytes()[:appended.Len()-appended.Len()/4])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		if magic := string(data[8:16]); magic != "NTDCSHD2" {
			t.Fatalf("accepted a grammar section opening with %q", magic)
		}
		// Anything accepted must be internally consistent: stats compute
		// and decompression terminates with the declared document count.
		st := got.Stats()
		docs := got.Decompress()
		if len(docs) != st.Documents {
			t.Fatalf("decompressed %d docs, stats say %d", len(docs), st.Documents)
		}
		// ...and it re-serializes as a shared-table set that reads back to
		// the same shard grammars under the same build tag.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo of an accepted archive: %v", err)
		}
		again, err := ReadArchive(&out)
		if err != nil {
			t.Fatalf("ReadArchive of a re-serialized archive: %v", err)
		}
		if !reflect.DeepEqual(again.shards, got.shards) || again.shared.Checksum() != got.shared.Checksum() {
			t.Fatal("re-serialized archive reads back differently")
		}
		if got.tag != got.shared.Checksum() || again.tag != got.tag {
			t.Fatalf("archive read with tag %08x, re-read with %08x; its checksum is %08x",
				got.tag, again.tag, got.shared.Checksum())
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
		a2, err := ReadArchive(&buf)
		if err != nil {
			t.Fatalf("ReadArchive of own output: %v", err)
		}
		// The reloaded archive builds engines from the identical grammar and
		// stamps them with the identical build tag.
		if !reflect.DeepEqual(a2.shards, a.shards) {
			t.Fatal("reloaded archive has a different grammar")
		}
		if a2.shared.Checksum() != a.shared.Checksum() {
			t.Fatalf("reloaded build tag %08x, want %08x", a2.shared.Checksum(), a.shared.Checksum())
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
