package ntadoc

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestBatchSpecCanonicalization(t *testing.T) {
	a := NewBatchSpec([]Task{TaskSort, TaskWordCount, TaskSort}, 0)
	b := NewBatchSpec([]Task{TaskWordCount, TaskSort}, 0)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("order/dup-insensitive canonicalization failed: %v vs %v", a, b)
	}
	if got, want := a.Signature(), "wordcount+sort"; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}

	p, err := ParseBatchSpec([]string{" sort ", "wordcount"}, 0)
	if err != nil {
		t.Fatalf("ParseBatchSpec: %v", err)
	}
	if p.Signature() != a.Signature() {
		t.Errorf("parsed signature %q != constructed %q", p.Signature(), a.Signature())
	}
	if _, err := ParseBatchSpec([]string{"nosuch"}, 0); err == nil {
		t.Error("ParseBatchSpec accepted an unknown task")
	}

	// K only matters when term vectors are in the batch and non-default.
	if s := NewBatchSpec([]Task{TaskWordCount}, 7); s.TermVectorK() != 0 {
		t.Errorf("K retained without termvector: %d", s.TermVectorK())
	}
	s := NewBatchSpec([]Task{TaskTermVectors}, 7)
	if s.TermVectorK() != 7 {
		t.Errorf("K dropped: %d", s.TermVectorK())
	}
	if got, want := s.Signature(), "termvector@k=7"; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
	if s.NeedsSequences() {
		t.Error("termvector should not need sequences")
	}
	if !NewBatchSpec([]Task{TaskSequenceCount}, 0).NeedsSequences() {
		t.Error("seqcount needs sequences")
	}
}

// TestQuerySessionMatchesEngine checks public sessions return results
// bit-identical to the engine task path, for unsharded and sharded engines,
// including a parameterized term-vector length.
func TestQuerySessionMatchesEngine(t *testing.T) {
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
			eng, err := NewEngine(tc.a, Options{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			spec := NewBatchSpec(AllTasks, 3)
			want, err := eng.RunSpec(spec)
			if err != nil {
				t.Fatalf("RunSpec: %v", err)
			}
			if len(want.TermVectors) > 0 && len(want.TermVectors[0]) > 3 {
				t.Fatalf("term vectors not truncated to k=3: %d", len(want.TermVectors[0]))
			}
			s, err := eng.NewSession()
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			got, err := s.RunSpec(context.Background(), spec)
			if err != nil {
				t.Fatalf("session RunSpec: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("session results differ from engine task path")
			}

			// The wire encoding decodes back to the same results, with each
			// term vector under its document's name.  (Byte identity with
			// server.EncodeResult is pinned in internal/server.)
			body, err := s.RunSpecJSON(context.Background(), spec)
			if err != nil {
				t.Fatalf("session RunSpecJSON: %v", err)
			}
			var wire struct {
				WordCount   map[string]uint64 `json:"wordcount"`
				Sort        []TermCount       `json:"sort"`
				TermVectors []struct {
					Doc   string      `json:"doc"`
					Terms []TermCount `json:"terms"`
				} `json:"termvector"`
				InvertedIndex       map[string][]string   `json:"invertedindex"`
				SequenceCount       map[string]uint64     `json:"seqcount"`
				RankedInvertedIndex map[string][]DocCount `json:"rankedindex"`
			}
			if err := json.Unmarshal(body, &wire); err != nil {
				t.Fatalf("RunSpecJSON body does not parse: %v", err)
			}
			decoded := &BatchResult{
				WordCount: wire.WordCount, Sort: wire.Sort, InvertedIndex: wire.InvertedIndex,
				SequenceCount: wire.SequenceCount, RankedInvertedIndex: wire.RankedInvertedIndex,
			}
			for i, tv := range wire.TermVectors {
				if tv.Doc != eng.DocumentNames()[i] {
					t.Errorf("term vector %d named %q, want %q", i, tv.Doc, eng.DocumentNames()[i])
				}
				decoded.TermVectors = append(decoded.TermVectors, tv.Terms)
			}
			if !reflect.DeepEqual(decoded, want) {
				t.Error("decoded RunSpecJSON body differs from engine task path")
			}
			if empty, err := s.RunSpecJSON(context.Background(), BatchSpec{}); err != nil || string(empty) != "{}" {
				t.Errorf("RunSpecJSON(empty spec) = %q, %v; want {}", empty, err)
			}
		})
	}

	// DRAM engines have no sessions.
	eng, err := NewEngine(mustCompress(t, shardDocs), Options{Medium: MediumDRAM})
	if err != nil {
		t.Fatalf("NewEngine(DRAM): %v", err)
	}
	defer eng.Close()
	if _, err := eng.NewSession(); err == nil {
		t.Error("NewSession on DRAM engine should fail")
	}
}

func mustCompress(t *testing.T, docs []Document) *Archive {
	t.Helper()
	a, err := Compress(docs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return a
}
