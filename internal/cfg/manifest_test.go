package cfg

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// shardGrammars builds two small valid shard grammars with overlapping
// vocabulary and a shared subrule shape.
func shardGrammars(t *testing.T) []*Grammar {
	t.Helper()
	g1 := &Grammar{
		NumWords: 6,
		NumFiles: 2,
		Files:    []string{"a.txt", "b.txt"},
		Rules: [][]Symbol{
			{Rule(1), Word(2), Sep(0), Rule(1), Word(3), Sep(1)},
			{Word(0), Word(1)},
		},
	}
	g2 := &Grammar{
		NumWords: 6,
		NumFiles: 1,
		Files:    []string{"c.txt"},
		Rules: [][]Symbol{
			{Rule(1), Rule(1), Word(5), Sep(0)},
			{Word(4), Word(0)},
		},
	}
	for i, g := range []*Grammar{g1, g2} {
		if err := g.Validate(); err != nil {
			t.Fatalf("shard %d invalid: %v", i, err)
		}
	}
	return []*Grammar{g1, g2}
}

func TestConcatShards(t *testing.T) {
	shards := shardGrammars(t)
	merged, err := ConcatShards(shards)
	if err != nil {
		t.Fatalf("ConcatShards: %v", err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged grammar invalid: %v", err)
	}
	if merged.NumFiles != 3 || len(merged.Files) != 3 {
		t.Fatalf("merged files = %d/%d, want 3", merged.NumFiles, len(merged.Files))
	}
	// The merged expansion must equal the shard expansions concatenated in
	// shard order.
	var want [][]uint32
	for _, g := range shards {
		want = append(want, g.ExpandFiles()...)
	}
	if got := merged.ExpandFiles(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged expansion mismatch:\n got %v\nwant %v", got, want)
	}
	// Single-shard concat is the identity.
	if one, err := ConcatShards(shards[:1]); err != nil || one != shards[0] {
		t.Fatalf("single-shard concat = (%v, %v)", one, err)
	}
	if _, err := ConcatShards(nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty concat error = %v", err)
	}
}

// sharedSetFixture unifies the standard shard grammars into a SharedSet.
func sharedSetFixture(t *testing.T) *SharedSet {
	t.Helper()
	shards := shardGrammars(t)
	fps := make([][]Fingerprint, len(shards))
	for i, g := range shards {
		f, err := FingerprintRules(g)
		if err != nil {
			t.Fatalf("FingerprintRules: %v", err)
		}
		fps[i] = f
	}
	set, err := UnifyShards(shards, fps)
	if err != nil {
		t.Fatalf("UnifyShards: %v", err)
	}
	return set
}

func TestSharedContainerRoundTrip(t *testing.T) {
	set := sharedSetFixture(t)
	var buf bytes.Buffer
	n, err := WriteSharedSet(&buf, set)
	if err != nil {
		t.Fatalf("WriteSharedSet: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSharedSet reported %d bytes, wrote %d", n, buf.Len())
	}
	if !bytes.HasPrefix(buf.Bytes(), sharedMagic) {
		t.Fatal("shared container written without its magic")
	}
	got, sum, err := ReadSharedSet(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadSharedSet: %v", err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, set)
	}
	if sum != set.Checksum() {
		t.Fatalf("ReadSharedSet returned checksum %08x, the set's is %08x", sum, set.Checksum())
	}
	// The container this one replaced opens with a different magic: it is
	// not read as a shared one.
	legacy := append([]byte("NTDCSHD1"), buf.Bytes()[8:]...)
	if _, _, err := ReadSharedSet(legacy); !errors.Is(err, ErrInvalid) {
		t.Fatalf("legacy container read by the shared reader: err = %v, want ErrInvalid", err)
	}
}

func TestSharedContainerDetectsCorruption(t *testing.T) {
	set := sharedSetFixture(t)
	var buf bytes.Buffer
	if _, err := WriteSharedSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := ReadSharedSet(data[:len(data)-6]); err == nil {
		t.Fatal("truncated container accepted")
	}
	// Every single-bit flip anywhere in the container must be rejected: the
	// shared section by its own checksum, the rest by the container's.
	for off := 0; off < len(data); off++ {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x01
		if _, _, err := ReadSharedSet(corrupt); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
}

func TestWriteSharedSetRejectsInvalid(t *testing.T) {
	set := sharedSetFixture(t)
	set.Shards[0].Root[0] = Rule(uint32(len(set.Shared)) + 5)
	var buf bytes.Buffer
	if _, err := WriteSharedSet(&buf, set); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}
