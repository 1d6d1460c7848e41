package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// benchEngine builds a two-shard engine over a scaled-down dataset D shape:
// many documents over a wide vocabulary, so every task's result is large
// enough for its encoding to dominate a benchmark iteration.
func benchEngine(b *testing.B) *ntadoc.Engine {
	b.Helper()
	spec := datagen.DatasetD
	spec.Files, spec.TokensPer, spec.Vocab = 16, 6000, 20000
	c := testCorpus{name: "bench"}
	toks, d := spec.GenerateWithDict()
	c.files, c.words = toks, d.Words()
	for range toks {
		c.docs = append(c.docs, "doc-"+strings.Repeat("x", len(c.docs)%7))
	}
	dct := ntadoc.NewDictionary()
	for _, w := range c.words {
		dct.Intern(w)
	}
	a, err := ntadoc.CompressTokensSharded(c.files, c.docs, dct, 2)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// benchLabel names a spec the way the repo benchmark's per-layer metrics do.
func benchLabel(spec ntadoc.BatchSpec) string {
	if tasks := spec.Tasks(); len(tasks) == 1 {
		return tasks[0].String()
	}
	return "fused"
}

// benchSpecs is the repo benchmark's default mix: six singles and the fused
// six-task batch.
func benchSpecs() []ntadoc.BatchSpec { return testSpecs()[:len(ntadoc.AllTasks)+1] }

// discard is the ResponseWriter the hit-path benchmark writes into.
type discard struct{ hdr http.Header }

func (w discard) Header() http.Header         { return w.hdr }
func (w discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)               {}

// BenchmarkHandlerHit measures the whole handler on a warmed key — parse,
// key build, cache get, envelope — writing into a discarding writer.
func BenchmarkHandlerHit(b *testing.B) {
	s, err := New(Config{Engine: benchEngine(b)})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, spec := range benchSpecs() {
		url := "/v1/query?task=" + strings.ReplaceAll(spec.Signature(), "+", ",")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warming %s: status %d", url, rec.Code)
		}
		b.Run(benchLabel(spec), func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, url, nil)
			w := discard{hdr: http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(rec.Body.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}

var benchBody []byte

// BenchmarkEncodeResult measures EncodeResult per task over a fixed
// BatchResult.
func BenchmarkEncodeResult(b *testing.B) {
	eng := benchEngine(b)
	sess, err := eng.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	docs := eng.DocumentNames()
	for _, spec := range benchSpecs() {
		res, err := sess.RunSpec(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchLabel(spec), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchBody, err = EncodeResult(res, docs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(benchBody)))
		})
	}
}
