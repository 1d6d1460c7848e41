package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc"
)

// newIngestServer builds a server over an appendable sharded engine.
func newIngestServer(t *testing.T, cfg Config) (*Server, *ntadoc.Engine) {
	t.Helper()
	a, err := ntadoc.CompressSharded(serverDocs, 2)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{IngestCapacity: 1 << 20})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg.Engine = eng
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, eng
}

func postAppend(t *testing.T, h http.Handler, req AppendRequest) (AppendResponse, *httptest.ResponseRecorder) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(body)))
	var ack AppendResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("decoding append ack: %v (body %q)", err, rec.Body.String())
		}
	}
	return ack, rec
}

// TestAppendInvalidatesCache commits an append through /v1/append and checks
// a cached pre-append result is never served afterwards: the generation is
// keyed by the corpus epoch, so the committed append forces a fresh
// traversal whose result includes the new document.
func TestAppendInvalidatesCache(t *testing.T) {
	s, _ := newIngestServer(t, Config{Sessions: 2})
	h := s.Handler()

	before, rec := getResponse(t, h, "/v1/query?task=wordcount")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	// Warm the cache.
	warm, _ := getResponse(t, h, "/v1/query?task=wordcount")
	if !warm.Cached {
		t.Fatalf("second identical query not cached")
	}

	ack, rec := postAppend(t, h, AppendRequest{Documents: []AppendDocument{
		{Name: "live0", Text: "zyzzyva zyzzyva arrives in the quick corpus"},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	if ack.Appended != 1 || ack.Epoch == 0 {
		t.Fatalf("append ack = %+v", ack)
	}
	if ack.Generation == before.Generation {
		t.Fatalf("generation unchanged after committed append: %s", ack.Generation)
	}

	after, rec := getResponse(t, h, "/v1/query?task=wordcount")
	if rec.Code != http.StatusOK {
		t.Fatalf("query after append: %d %s", rec.Code, rec.Body.String())
	}
	if after.Cached {
		t.Fatal("pre-append result served from cache after committed append")
	}
	if after.Generation == before.Generation {
		t.Fatalf("query generation unchanged after append: %s", after.Generation)
	}
	var counts struct {
		WordCount map[string]uint64 `json:"wordcount"`
	}
	if err := json.Unmarshal(after.Result, &counts); err != nil {
		t.Fatal(err)
	}
	if counts.WordCount["zyzzyva"] != 2 {
		t.Errorf("appended word count = %d, want 2", counts.WordCount["zyzzyva"])
	}

	// The ingestion surface reflects the commit.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/ingest", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("/v1/ingest: %d", rec2.Code)
	}
	var info IngestInfo
	if err := json.Unmarshal(rec2.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Batches != 1 || info.AppendedDocs != 1 || info.Documents != len(serverDocs)+1 {
		t.Errorf("ingest info = %+v", info)
	}
	if n := len(info.LastDocuments); n == 0 || info.LastDocuments[n-1] != "live0" {
		t.Errorf("LastDocuments = %v, want trailing live0", info.LastDocuments)
	}
}

// TestAppendsKeepCacheBounded checks the cache drops a generation's entries
// once the generation advances: after any number of appends, each followed by
// the same few queries, it holds at most one entry per distinct signature —
// not one per (epoch, signature), unreachable and waiting for LRU pressure.
func TestAppendsKeepCacheBounded(t *testing.T) {
	s, _ := newIngestServer(t, Config{Sessions: 2})
	h := s.Handler()
	tasks := []string{"wordcount", "sort", "invertedindex"}

	metric := func(name string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return ""
	}

	var perEpoch string
	for batch := 0; batch < 12; batch++ {
		_, rec := postAppend(t, h, AppendRequest{Documents: []AppendDocument{
			{Name: fmt.Sprintf("live%d", batch), Text: "one more quick brown document arrives"},
		}})
		if rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", batch, rec.Code, rec.Body.String())
		}
		for _, task := range tasks {
			for pass, cached := range []bool{false, true} {
				resp, rec := getResponse(t, h, "/v1/query?task="+task)
				if rec.Code != http.StatusOK || resp.Cached != cached {
					t.Fatalf("append %d, %s pass %d: status %d cached %v", batch, task, pass, rec.Code, resp.Cached)
				}
			}
		}
		if got, want := metric("ntadoc_cache_entries"), fmt.Sprint(len(tasks)); got != want {
			t.Fatalf("after append %d: ntadoc_cache_entries = %s, want %s", batch, got, want)
		}
		if batch == 0 {
			perEpoch = metric("ntadoc_cache_bytes")
		}
	}
	// Bodies grow a little with every appended document, but the cache holds
	// one epoch's worth, not twelve.
	if first, last := atoi(t, perEpoch), atoi(t, metric("ntadoc_cache_bytes")); last > 2*first {
		t.Errorf("ntadoc_cache_bytes grew from %d to %d over 12 appends", first, last)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAppendErrors checks the append error surface: bad bodies, unnamed
// documents, and engines without ingestion support.
func TestAppendErrors(t *testing.T) {
	s, _ := newIngestServer(t, Config{Sessions: 1})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/append", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/append = %d", rec.Code)
	}

	_, rec2 := postAppend(t, h, AppendRequest{})
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("empty append = %d", rec2.Code)
	}
	_, rec3 := postAppend(t, h, AppendRequest{Documents: []AppendDocument{{Text: "unnamed"}}})
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("unnamed document = %d", rec3.Code)
	}

	// A server over a non-ingesting engine refuses appends with 501.
	plain, _ := newTestServer(t, Config{Sessions: 1})
	_, rec4 := postAppend(t, plain.Handler(), AppendRequest{Documents: []AppendDocument{
		{Name: "x", Text: "hello"},
	}})
	if rec4.Code != http.StatusNotImplemented {
		t.Errorf("append without ingestion = %d", rec4.Code)
	}
}
