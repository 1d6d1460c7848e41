package ntadoc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// shardDocs is large enough to split three ways with shared phrases across
// shard boundaries (so sharding measurably loses compression).
var shardDocs = []Document{
	{Name: "d0", Text: "the quick brown fox jumps over the lazy dog again and again"},
	{Name: "d1", Text: "the quick brown fox naps while the lazy dog jumps"},
	{Name: "d2", Text: "a lazy dog and a quick fox share the quick brown field"},
	{Name: "d3", Text: "entirely unrelated words appear here once in a while"},
	{Name: "d4", Text: "the quick brown fox jumps over the lazy dog once more"},
	{Name: "d5", Text: "words appear here once more while the fox naps"},
}

// TestShardedArchive checks the sharded compress path end to end: shard
// accounting, identical decompression, and the compression-for-parallelism
// trade (sharded archives are never smaller).
func TestShardedArchive(t *testing.T) {
	plain, err := Compress(shardDocs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	for _, k := range []int{1, 2, 3} {
		a, err := CompressSharded(shardDocs, k)
		if err != nil {
			t.Fatalf("CompressSharded(k=%d): %v", k, err)
		}
		if a.NumShards() != k {
			t.Errorf("NumShards = %d, want %d", a.NumShards(), k)
		}
		if !reflect.DeepEqual(a.Decompress(), plain.Decompress()) {
			t.Errorf("k=%d: sharded archive decompresses differently", k)
		}
		if got, want := a.Stats().GrammarSymbols, plain.Stats().GrammarSymbols; got < want {
			t.Errorf("k=%d: sharded grammar smaller (%d) than unsharded (%d)", k, got, want)
		}
	}
}

// TestShardedArchiveSerialization round-trips the shard container through
// WriteTo/ReadArchive and checks the sharded engine still builds from it.
func TestShardedArchiveSerialization(t *testing.T) {
	a, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	a2, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	if a2.NumShards() != 3 {
		t.Fatalf("round-tripped NumShards = %d, want 3", a2.NumShards())
	}
	if !reflect.DeepEqual(a.Decompress(), a2.Decompress()) {
		t.Error("round-tripped sharded archive decompresses differently")
	}
	if !reflect.DeepEqual(a.DocumentNames(), a2.DocumentNames()) {
		t.Error("document names lost through shard container")
	}

	// Corrupting the shard section must be detected.
	raw := buf.Bytes()
	raw[len(raw)/3] ^= 0x40
	if _, err := ReadArchive(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted shard container accepted")
	}
}

// TestShardedEngineMatchesUnsharded checks every public task and the fused
// batch produce identical results on sharded and unsharded engines.
func TestShardedEngineMatchesUnsharded(t *testing.T) {
	plain, err := Compress(shardDocs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	ref, err := NewEngine(plain, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer ref.Close()
	want, err := ref.RunBatch(AllTasks...)
	if err != nil {
		t.Fatalf("unsharded RunBatch: %v", err)
	}

	a, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	e, err := NewEngine(a, Options{})
	if err != nil {
		t.Fatalf("sharded NewEngine: %v", err)
	}
	defer e.Close()
	if e.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", e.NumShards())
	}
	got, err := e.RunBatch(AllTasks...)
	if err != nil {
		t.Fatalf("sharded RunBatch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sharded batch differs from unsharded")
	}

	wc, err := e.WordCount()
	if err != nil {
		t.Fatalf("sharded WordCount: %v", err)
	}
	if !reflect.DeepEqual(wc, want.WordCount) {
		t.Error("sharded WordCount differs")
	}
	rii, err := e.RankedInvertedIndex()
	if err != nil {
		t.Fatalf("sharded RankedInvertedIndex: %v", err)
	}
	if !reflect.DeepEqual(rii, want.RankedInvertedIndex) {
		t.Error("sharded RankedInvertedIndex differs")
	}

	init, trav := e.PhaseTimes()
	if init <= 0 || trav <= 0 {
		t.Errorf("sharded PhaseTimes = %v, %v", init, trav)
	}
	dev, dram := e.MemoryFootprint()
	if dev <= 0 || dram <= 0 {
		t.Errorf("sharded MemoryFootprint = %d, %d", dev, dram)
	}

	// The DRAM baseline accepts sharded archives via the merged view.
	dm, err := NewEngine(a, Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("DRAM engine on sharded archive: %v", err)
	}
	defer dm.Close()
	dwc, err := dm.WordCount()
	if err != nil {
		t.Fatalf("DRAM WordCount: %v", err)
	}
	if !reflect.DeepEqual(dwc, want.WordCount) {
		t.Error("DRAM engine on sharded archive differs")
	}
}

// TestRunBatchShardError asserts the typed scatter-gather error surfaces
// through the public batch API: the error names the failed shard and carries
// the device error in its chain.
func TestRunBatchShardError(t *testing.T) {
	a, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	e, err := NewEngine(a, Options{Persistence: OperationLevel})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	const victim = 2
	dev := e.sh.Shard(victim).Device()
	dev.FailFromPersistEvent(dev.PersistEvents() + 1)
	_, err = e.RunBatch(AllTasks...)
	if err == nil {
		t.Fatal("armed shard produced no error")
	}
	var sf *core.ErrShardFailed
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want core.ErrShardFailed in chain", err)
	}
	if sf.Shard != victim {
		t.Errorf("ErrShardFailed.Shard = %d, want %d", sf.Shard, victim)
	}
	if !errors.Is(err, nvm.ErrFailPoint) {
		t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
	}
}

// TestRunBatchShardFailureAnyShardCount kills one shard mid-batch through
// the public batch API, for an unsharded archive (the one-shard engine)
// exactly as for K=3: the batch fails typed, naming the shard, and once the
// fail point is disarmed the next batch matches the healthy unsharded run.
func TestRunBatchShardFailureAnyShardCount(t *testing.T) {
	ref, err := NewEngine(mustCompress(t, shardDocs), Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer ref.Close()
	want, err := ref.RunBatch(AllTasks...)
	if err != nil {
		t.Fatalf("unsharded RunBatch: %v", err)
	}
	for _, tc := range []struct {
		name      string
		k, victim int
	}{
		{"k=1", 1, 0},
		{"k=3", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := CompressSharded(shardDocs, tc.k)
			if err != nil {
				t.Fatalf("CompressSharded: %v", err)
			}
			e, err := NewEngine(a, Options{Persistence: OperationLevel})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer e.Close()
			if n := e.NumShards(); n != tc.k {
				t.Fatalf("NumShards = %d, want %d", n, tc.k)
			}
			dev := e.sh.Shard(tc.victim).Device()
			dev.FailFromPersistEvent(dev.PersistEvents() + 1)
			_, err = e.RunBatch(AllTasks...)
			var sf *core.ErrShardFailed
			if !errors.As(err, &sf) || sf.Shard != tc.victim {
				t.Fatalf("err = %v, want core.ErrShardFailed{Shard: %d}", err, tc.victim)
			}
			if !errors.Is(err, nvm.ErrFailPoint) {
				t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
			}
			dev.DisarmFailPoints()
			got, err := e.RunBatch(AllTasks...)
			if err != nil {
				t.Fatalf("disarmed RunBatch: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("batch after the failure differs from unsharded")
			}
		})
	}
}

// TestSharedFormRoundTrip checks the unified (shared-rule-table) form is
// what a sharded archive serializes, that it survives the round trip
// exactly, and that re-serialization is byte-identical (deterministic).
func TestSharedFormRoundTrip(t *testing.T) {
	a, err := CompressSharded(shardDocs, 3)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	if a.shared == nil {
		t.Fatal("sharded archive carries no unified form")
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	a2, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	if !reflect.DeepEqual(a2.shared, a.shared) {
		t.Fatal("unified form changed through serialization")
	}
	var buf2 bytes.Buffer
	if _, err := a2.WriteTo(&buf2); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization not byte-identical")
	}
}
