package ntadoc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// liveDocs are the documents appended online in the ingestion tests; they
// mix base vocabulary with novel words so appends grow the dictionary.
var liveDocs = []Document{
	{Name: "n0", Text: "the quick fox discovers a brand new burrow"},
	{Name: "n1", Text: "brand new words arrive while the dog naps"},
	{Name: "n2", Text: "the lazy dog jumps over the new burrow again"},
	{Name: "n3", Text: "a final appended document with the quick brown fox"},
}

// allDocs is the full corpus after every append.
func allDocs() []Document {
	return append(append([]Document(nil), shardDocs...), liveDocs...)
}

// runAll runs the full task batch with k=3 term vectors.
func runAll(t *testing.T, e *Engine) *BatchResult {
	t.Helper()
	res, err := e.RunSpec(NewBatchSpec(AllTasks, 3))
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	return res
}

// TestPublicAppendBitIdentity appends documents through the public API —
// unsharded and sharded — and checks every task's result is bit-identical
// to recompressing the whole corpus from scratch, before and after a
// forced compaction.
func TestPublicAppendBitIdentity(t *testing.T) {
	ref, err := NewEngine(mustCompress(t, allDocs()), Options{})
	if err != nil {
		t.Fatalf("NewEngine(ref): %v", err)
	}
	defer ref.Close()
	want := runAll(t, ref)
	wantNames := ref.DocumentNames()

	shard2, err := CompressSharded(shardDocs, 2)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	for _, tc := range []struct {
		name string
		a    *Archive
	}{
		{"unsharded", mustCompress(t, shardDocs)},
		{"sharded", shard2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.a, Options{IngestCapacity: 1 << 20})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			epoch0 := eng.CorpusEpoch()
			// Two batches: a single document, then the rest.
			if err := eng.Append(liveDocs[:1]); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := eng.Append(liveDocs[1:]); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if got := eng.CorpusEpoch(); got <= epoch0 {
				t.Errorf("CorpusEpoch did not advance: %d -> %d", epoch0, got)
			}
			if got := eng.DocumentNames(); !reflect.DeepEqual(got, wantNames) {
				t.Errorf("DocumentNames = %v, want %v", got, wantNames)
			}
			if got := runAll(t, eng); !reflect.DeepEqual(got, want) {
				t.Error("results after append differ from from-scratch rebuild")
			}
			st := eng.IngestStats()
			if st.Batches != 2 || st.AppendedDocs != uint64(len(liveDocs)) {
				t.Errorf("IngestStats = %+v", st)
			}
			if err := eng.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if got := eng.IngestStats(); got.Compactions == 0 {
				t.Errorf("no compaction recorded: %+v", got)
			}
			if got := runAll(t, eng); !reflect.DeepEqual(got, want) {
				t.Error("results after compaction differ from from-scratch rebuild")
			}
		})
	}
}

// TestAppendRequiresIngest checks the error surface: every engine built
// without ingestion — DRAM, or an N-TADOC medium without IngestCapacity, at
// any shard count — rejects Append and Compact with ErrNoIngest under the
// operation's name, wrapped exactly once, and stays fully queryable.
func TestAppendRequiresIngest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		opts   Options
	}{
		{"dram", 1, Options{Medium: MediumDRAM}},
		{"no-capacity", 1, Options{}},
		{"no-capacity-sharded", 2, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := CompressSharded(shardDocs, tc.shards)
			if err != nil {
				t.Fatalf("CompressSharded: %v", err)
			}
			eng, err := NewEngine(a, tc.opts)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			for _, op := range []struct {
				name string
				err  error
			}{
				{"append", eng.Append(liveDocs[:1])},
				{"compact", eng.Compact()},
			} {
				if !errors.Is(op.err, ErrNoIngest) {
					t.Errorf("%s = %v, want ErrNoIngest", op.name, op.err)
				} else if want := "ntadoc: " + op.name + ": " + ErrNoIngest.Error(); op.err.Error() != want {
					t.Errorf("%s = %q, want %q", op.name, op.err, want)
				}
			}
			if _, err := eng.WordCount(); err != nil {
				t.Errorf("engine not queryable after rejected append: %v", err)
			}
			if eng.CorpusEpoch() != 0 {
				t.Errorf("CorpusEpoch = %d on non-ingest engine", eng.CorpusEpoch())
			}
		})
	}
}

// TestArchiveDeltaRoundTrip serializes an appended-to archive (which emits
// the NTDCDLT1 delta container: base bytes unchanged plus a delta grammar)
// and checks the reloaded archive folds the delta in and serves results
// bit-identical to a from-scratch compression of the full corpus.
func TestArchiveDeltaRoundTrip(t *testing.T) {
	ref, err := NewEngine(mustCompress(t, allDocs()), Options{})
	if err != nil {
		t.Fatalf("NewEngine(ref): %v", err)
	}
	defer ref.Close()
	want := runAll(t, ref)

	shard3, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	for _, tc := range []struct {
		name string
		a    *Archive
	}{
		{"unsharded", mustCompress(t, shardDocs)},
		{"sharded", shard3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.a, Options{IngestCapacity: 1 << 20})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if err := eng.Append(liveDocs); err != nil {
				t.Fatalf("Append: %v", err)
			}
			eng.Close()
			if got := tc.a.AppendedDocuments(); got != len(liveDocs) {
				t.Fatalf("AppendedDocuments = %d, want %d", got, len(liveDocs))
			}

			var buf bytes.Buffer
			if _, err := tc.a.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			b, err := ReadArchive(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadArchive: %v", err)
			}
			// Reading folds the delta: the loaded archive is a compacted
			// whole-corpus grammar.
			if got := b.AppendedDocuments(); got != 0 {
				t.Errorf("AppendedDocuments after reload = %d, want 0", got)
			}
			if got := b.Stats().Documents; got != len(allDocs()) {
				t.Errorf("Documents = %d, want %d", got, len(allDocs()))
			}
			reng, err := NewEngine(b, Options{})
			if err != nil {
				t.Fatalf("NewEngine(reloaded): %v", err)
			}
			defer reng.Close()
			if got := runAll(t, reng); !reflect.DeepEqual(got, want) {
				t.Error("reloaded delta archive results differ from from-scratch rebuild")
			}
		})
	}
}

// TestNewEngineFoldsPendingDelta checks that building a second engine from
// an archive holding unfolded appends folds them first, so the new engine —
// on any medium — serves the full corpus.
func TestNewEngineFoldsPendingDelta(t *testing.T) {
	a := mustCompress(t, shardDocs)
	eng, err := NewEngine(a, Options{IngestCapacity: 1 << 20})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Append(liveDocs); err != nil {
		t.Fatalf("Append: %v", err)
	}
	eng.Close()

	ref, err := NewEngine(mustCompress(t, allDocs()), Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("NewEngine(ref): %v", err)
	}
	defer ref.Close()
	dram, err := NewEngine(a, Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("NewEngine(folded DRAM): %v", err)
	}
	defer dram.Close()
	if a.AppendedDocuments() != 0 {
		t.Errorf("fold left %d pending documents", a.AppendedDocuments())
	}
	if got, want := runAll(t, dram), runAll(t, ref); !reflect.DeepEqual(got, want) {
		t.Error("folded DRAM engine results differ from from-scratch rebuild")
	}
}
