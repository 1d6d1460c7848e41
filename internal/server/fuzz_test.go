package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/text-analytics/ntadoc"
)

// fuzzPaths are the request-decoding endpoints FuzzRequestDecoding drives.
var fuzzPaths = []string{"/v1/query", "/v1/batch", "/v1/append"}

// fuzzStatuses are the statuses the query and append handlers write for a
// request served one at a time on a healthy engine.  A 500 — an engine
// error the request decoding let through — is not among them.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusServiceUnavailable:    true,
	http.StatusInsufficientStorage:   true,
}

// FuzzRequestDecoding sends one arbitrary request — method, endpoint, query
// string and body — through Server.Handler() on a fresh, tiny appendable
// engine, and requires the handlers to answer it without panicking, with a
// status they write, and, when the status is 200, with a body that is valid
// JSON.
func FuzzRequestDecoding(f *testing.F) {
	a, err := ntadoc.CompressSharded(serverDocs, 2)
	if err != nil {
		f.Fatalf("CompressSharded: %v", err)
	}
	// The shapes the daemon's end-to-end test sends, then a few near misses.
	f.Add(false, uint8(0), "task=wordcount", "")
	f.Add(false, uint8(0), "task=wordcount,sort", "")
	f.Add(false, uint8(0), "task=wordcount,termvector", "")
	f.Add(false, uint8(0), "task=wordcount,sort,termvector,invertedindex,seqcount,rankedindex&k=3", "")
	f.Add(true, uint8(1), "", `{"tasks":["wordcount","rankedindex"],"termvector_k":2}`)
	f.Add(true, uint8(0), "", `{"task":"termvector","termvector_k":1}`)
	f.Add(true, uint8(2), "", `{"documents":[{"name":"live0","text":"zyzzyva arrives in the quick corpus"}]}`)
	f.Add(true, uint8(2), "", `{"documents":[{"name":"","text":"no name"}]}`)
	f.Add(false, uint8(2), "", "")
	f.Add(false, uint8(1), "tasks=seqcount&tasks=sort&k=-1", "")
	f.Add(true, uint8(1), "", `{"tasks":["nosuchtask"]}`)
	f.Fuzz(func(t *testing.T, post bool, path uint8, query, body string) {
		eng, err := ntadoc.NewEngine(a, ntadoc.Options{IngestCapacity: 1 << 16})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		defer eng.Close()
		s, err := New(Config{Engine: eng, Sessions: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer s.Close()
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, fuzzPaths[int(path)%len(fuzzPaths)], strings.NewReader(body))
		// Set after construction: NewRequest panics on a target it cannot
		// parse, and a raw query is what a client can put on the wire.
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("%s %s?%s: status %d (%q)", method, req.URL.Path, query, rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s?%s: 200 with invalid JSON %q", method, req.URL.Path, query, rec.Body.String())
		}
	})
}
