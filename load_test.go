package ntadoc

import (
	"bytes"
	"testing"
)

// coldMissArchive serializes the `cold-miss` shape's K=2 archive (dataset D
// cut to 32 documents, its whole 140,000-word vocabulary in the dictionary).
func coldMissArchive(tb testing.TB) []byte {
	tb.Helper()
	files, d := sessionMixShapes[0].spec.GenerateWithDict()
	a, err := CompressTokensSharded(files, nil, &Dictionary{d: d}, 2)
	if err != nil {
		tb.Fatalf("compress: %v", err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		tb.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// BenchmarkReadArchive is the load slice of `make microbench`: ReadArchive
// over the `cold-miss` shape's archive, the parse a daemon does before it
// builds engines.  MB/s is archive bytes parsed per second.
func BenchmarkReadArchive(b *testing.B) {
	raw := coldMissArchive(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadArchive(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// readArchiveAllocs bounds the allocations of one ReadArchive of the
// `cold-miss` archive (1.9 MB, 140,000 words): measured 104 on amd64 with
// Go 1.24, where reading one value per word cost 665,000.  The load path
// allocates per section —
// the grammar section's buffer, one symbol arena per parsed section and per
// materialized grammar, the dictionary's byte arena and its word table —
// so the count does not grow with words, rules or bytes; a reader that
// allocated per word or per rule again would need hundreds of thousands.
// The dictionary's word index is not built here: a map allocates its
// buckets in tables of about a thousand entries each (515 more), and only
// Intern and Lookup need it, so it waits for the first of them.
const readArchiveAllocs = 1000

func TestReadArchiveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("builds the cold-miss corpus")
	}
	raw := coldMissArchive(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadArchive(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadArchive of a %d-byte archive: %.0f allocations", len(raw), allocs)
	if allocs > readArchiveAllocs {
		t.Errorf("ReadArchive made %.0f allocations, budget %d", allocs, readArchiveAllocs)
	}
}
