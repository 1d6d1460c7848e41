package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

var serverDocs = []ntadoc.Document{
	{Name: "d0", Text: "the quick brown fox jumps over the lazy dog again and again"},
	{Name: "d1", Text: "the quick brown fox naps while the lazy dog jumps"},
	{Name: "d2", Text: "a lazy dog and a quick fox share the quick brown field"},
	{Name: "d3", Text: "entirely unrelated words appear here once in a while"},
	{Name: "d4", Text: "the quick brown fox jumps over the lazy dog once more"},
	{Name: "d5", Text: "words appear here once more while the fox naps"},
}

// newTestServer builds a server over a sharded, replicated engine (so the
// recovery path has a follower to fall back on).
func newTestServer(t *testing.T, cfg Config) (*Server, *ntadoc.Engine) {
	t.Helper()
	a, err := ntadoc.CompressSharded(serverDocs, 2)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{Replicas: 1})
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

func getResponse(t *testing.T, h http.Handler, url string) (Response, *httptest.ResponseRecorder) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	var resp Response
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, rec.Body.String())
		}
	}
	return resp, rec
}

// TestServeBitParity checks that every task served over HTTP is
// byte-identical to direct library execution, for each of the six ops and a
// fused batch, over both GET and POST forms.
func TestServeBitParity(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	h := s.Handler()
	docs := eng.DocumentNames()

	batches := [][]string{
		{"wordcount"}, {"sort"}, {"termvector"}, {"invertedindex"},
		{"seqcount"}, {"rankedindex"},
		{"wordcount", "sort", "termvector", "invertedindex", "seqcount", "rankedindex"},
	}
	for _, names := range batches {
		spec, err := ntadoc.ParseBatchSpec(names, 0)
		if err != nil {
			t.Fatalf("ParseBatchSpec(%v): %v", names, err)
		}
		direct, err := eng.RunSpec(spec)
		if err != nil {
			t.Fatalf("RunSpec(%v): %v", names, err)
		}
		want, err := EncodeResult(direct, docs)
		if err != nil {
			t.Fatalf("EncodeResult: %v", err)
		}

		url := "/v1/query?task=" + strings.Join(names, ",")
		resp, rec := getResponse(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		if resp.Signature != spec.Signature() {
			t.Errorf("GET %s: signature %q, want %q", url, resp.Signature, spec.Signature())
		}
		if !bytes.Equal(resp.Result, want) {
			t.Errorf("GET %s: result differs from direct execution\n got %s\nwant %s", url, resp.Result, want)
		}

		body, _ := json.Marshal(Request{Tasks: names})
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %v: status %d: %s", names, rec.Code, rec.Body.String())
		}
		var presp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
			t.Fatalf("decoding POST response: %v", err)
		}
		if !bytes.Equal(presp.Result, want) {
			t.Errorf("POST %v: result differs from direct execution", names)
		}
	}

	// The k parameter must reach the term vectors.
	spec, _ := ntadoc.ParseBatchSpec([]string{"termvector"}, 2)
	direct, err := eng.RunSpec(spec)
	if err != nil {
		t.Fatalf("RunSpec(termvector@2): %v", err)
	}
	want, _ := EncodeResult(direct, docs)
	resp, rec := getResponse(t, h, "/v1/query?task=termvector&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("termvector k=2: status %d", rec.Code)
	}
	if resp.Signature != "termvector@k=2" {
		t.Errorf("signature %q, want termvector@k=2", resp.Signature)
	}
	if !bytes.Equal(resp.Result, want) {
		t.Errorf("termvector k=2 differs from direct execution")
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, url := range []string{"/v1/query", "/v1/query?task=bogus", "/v1/query?task=wordcount&k=x"} {
		_, rec := getResponse(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", url, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/query", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("DELETE: status %d, want 400", rec.Code)
	}
}

// TestCacheHitAndRecoveryInvalidation checks the LRU serves repeated batches
// without touching the engine, and that a device failure surfaced by a query
// bumps the generation and drops every cached result.
func TestCacheHitAndRecoveryInvalidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	first, rec := getResponse(t, h, "/v1/query?task=wordcount,sort")
	if rec.Code != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %v", rec.Code, first.Cached)
	}
	// The canonicalized permutation must hit the same cache entry.
	second, rec := getResponse(t, h, "/v1/query?task=sort,wordcount,sort")
	if rec.Code != http.StatusOK {
		t.Fatalf("second: status %d", rec.Code)
	}
	if !second.Cached {
		t.Error("second identical batch not served from cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("cached result differs")
	}
	if second.Generation != first.Generation {
		t.Errorf("generation changed without recovery: %q vs %q", second.Generation, first.Generation)
	}

	// Inject a device failure into the next execution: the simulated read
	// path cannot produce one organically (fail points fire on writes), so
	// the seam stands in for a shard primary dying mid-query.
	run := s.execute
	var injected atomic.Bool
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
		if injected.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("shard 0: %w", nvm.ErrFailPoint)
		}
		return run(ctx, sess, spec)
	}
	_, rec = getResponse(t, h, "/v1/query?task=seqcount")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed query: status %d, want 503", rec.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.recoveries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery did not complete")
		}
		time.Sleep(time.Millisecond)
	}

	third, rec := getResponse(t, h, "/v1/query?task=sort,wordcount")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery: status %d: %s", rec.Code, rec.Body.String())
	}
	if third.Cached {
		t.Error("post-recovery result served from stale cache")
	}
	if third.Generation == first.Generation {
		t.Errorf("generation %q did not change across recovery", third.Generation)
	}
	if !bytes.Equal(third.Result, first.Result) {
		t.Error("post-recovery result differs from pre-recovery")
	}
	if got := s.pool.idle(); got != s.cfg.Sessions {
		t.Errorf("pool idle = %d after recovery, want %d", got, s.cfg.Sessions)
	}
}

// TestRecoveryWithoutFollowerLatchesDown checks the other recovery outcome:
// an engine with no live follower — unsharded or sharded alike — has nothing
// to fail over to, so Engine.Recover reports an error and the server latches
// down instead of resuming on a device it was told is dead.
func TestRecoveryWithoutFollowerLatchesDown(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			a, err := ntadoc.CompressSharded(serverDocs, k)
			if err != nil {
				t.Fatalf("CompressSharded: %v", err)
			}
			eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			t.Cleanup(func() { eng.Close() })
			if err := eng.Recover(); err == nil {
				t.Fatal("Recover succeeded on an engine with no follower")
			}
			s, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s.execute = func(context.Context, *ntadoc.QuerySession, ntadoc.BatchSpec) ([]byte, error) {
				return nil, fmt.Errorf("shard 0: %w", nvm.ErrFailPoint)
			}
			h := s.Handler()
			if _, rec := getResponse(t, h, "/v1/query?task=wordcount"); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("failed query: status %d, want 503", rec.Code)
			}
			deadline := time.Now().Add(10 * time.Second)
			for !s.down.Load() {
				if time.Now().After(deadline) {
					t.Fatal("server did not latch down")
				}
				time.Sleep(time.Millisecond)
			}
			if _, rec := getResponse(t, h, "/v1/query?task=sort"); rec.Code != http.StatusServiceUnavailable ||
				!strings.Contains(rec.Body.String(), "engine down") {
				t.Errorf("after latch: status %d body %q, want 503 engine down", rec.Code, rec.Body.String())
			}
			if s.recoveries.Load() != 0 {
				t.Errorf("recoveries = %d, want 0", s.recoveries.Load())
			}
		})
	}
}

// TestCoalescing checks a burst of identical batches traverses once: the
// leader executes, concurrent followers share its bytes (or hit the cache if
// they arrive after it lands).
func TestCoalescing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	run := s.execute
	var execs atomic.Int64
	entered := make(chan struct{})
	gate := make(chan struct{})
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
		if execs.Add(1) == 1 {
			close(entered)
		}
		<-gate
		return run(ctx, sess, spec)
	}

	const n = 8
	type out struct {
		resp Response
		code int
	}
	results := make([]out, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0].resp, results[0].code = func() (Response, int) {
			r, rec := getResponse(t, h, "/v1/query?task=invertedindex")
			return r, rec.Code
		}()
	}()
	<-entered // leader is mid-execution and holds the flight
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, rec := getResponse(t, h, "/v1/query?task=invertedindex")
			results[i] = out{r, rec.Code}
		}(i)
	}
	// Give the followers a moment to reach the coalescer, then release.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	var shared int
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		if !bytes.Equal(r.resp.Result, results[0].resp.Result) {
			t.Errorf("request %d: result differs", i)
		}
		if r.resp.Coalesced || r.resp.Cached {
			shared++
		}
	}
	if got := execs.Load(); got >= n {
		t.Errorf("%d executions for %d identical requests; coalescing did nothing", got, n)
	}
	if shared == 0 {
		t.Error("no request reported a shared (coalesced or cached) result")
	}
}

// TestOverloadSheds checks admission control: with the pool busy and the
// queue full, the next request is refused immediately with 429.
func TestOverloadSheds(t *testing.T) {
	s, _ := newTestServer(t, Config{Sessions: 1, QueueDepth: 1, CacheEntries: -1})
	h := s.Handler()

	run := s.execute
	entered := make(chan struct{})
	gate := make(chan struct{})
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return run(ctx, sess, spec)
	}

	codes := make(chan int, 2)
	go func() {
		_, rec := getResponse(t, h, "/v1/query?task=wordcount")
		codes <- rec.Code
	}()
	<-entered // request 1 holds the only session
	go func() {
		_, rec := getResponse(t, h, "/v1/query?task=sort")
		codes <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.queued() != 1 { // request 2 occupies the queue slot
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, rec := getResponse(t, h, "/v1/query?task=seqcount")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", rec.Code)
	}
	if s.reqShed.Load() != 1 {
		t.Errorf("reqShed = %d, want 1", s.reqShed.Load())
	}

	close(gate)
	<-entered // request 2 reaches execution
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued request: status %d, want 200", code)
		}
	}
	if got := s.pool.idle(); got != 1 {
		t.Errorf("pool idle = %d, want 1", got)
	}
}

// TestClientDisconnect checks that a client giving up mid-batch cancels the
// execution, is not written a response, and leaves the pool fully reusable.
func TestClientDisconnect(t *testing.T) {
	s, _ := newTestServer(t, Config{Sessions: 1, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := s.execute
	entered := make(chan struct{}, 1)
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
		entered <- struct{}{}
		<-ctx.Done() // hold the session until the request dies
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/query?task=rankedindex", nil)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.reqCanceled.Load() == 0 || s.pool.idle() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: canceled=%d idle=%d, want 1/1",
				s.reqCanceled.Load(), s.pool.idle())
		}
		time.Sleep(time.Millisecond)
	}

	// The pool must be reusable: the next request runs for real.
	s.execute = run
	resp, err := http.Get(ts.URL + "/v1/query?task=rankedindex")
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d", resp.StatusCode)
	}
}

// TestConcurrentSessions drives well past 64 concurrent requests with unique
// batch signatures (defeating cache and coalescer) and checks every one
// succeeds and every session comes home.
func TestConcurrentSessions(t *testing.T) {
	const sessions, requests = 64, 128
	s, _ := newTestServer(t, Config{Sessions: sessions, QueueDepth: requests, CacheEntries: -1})
	h := s.Handler()

	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique k per request: every request is its own flight.
			url := fmt.Sprintf("/v1/query?task=termvector&k=%d", i+1)
			_, rec := getResponse(t, h, url)
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := s.pool.idle(); got != sessions {
		t.Errorf("pool idle = %d, want %d (leaked sessions)", got, sessions)
	}
	if got := s.pool.queued(); got != 0 {
		t.Errorf("pool queued = %d, want 0", got)
	}
}

// TestOperationalEndpoints smoke-checks /healthz, /metrics, /debug/engine.
func TestOperationalEndpoints(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	h := s.Handler()

	warm, rec := getResponse(t, h, "/v1/query?task=wordcount")
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup query: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{
		`ntadoc_requests_total{outcome="ok"} 1`,
		"ntadoc_sessions_idle",
		"ntadoc_session_workspace_bytes",
		`ntadoc_device{counter="reads"}`,
		`ntadoc_phase_modeled_nanos{phase="traversal"}`,
		fmt.Sprintf("ntadoc_device_mapped_bytes{images=\"live\"} %d\n", nvm.MappedBytes()),
		`ntadoc_device_mapped_bytes{images="recycled"} `,
		"ntadoc_go_heap_live_bytes ",
		"ntadoc_go_heap_goal_bytes ",
		"ntadoc_go_alloc_bytes_total ",
		"ntadoc_go_gc_cycles_total ",
		fmt.Sprintf("ntadoc_response_body_bytes_total %d\n", len(warm.Result)),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if nvm.MappedBytes() == 0 || strings.Contains(string(body), "ntadoc_go_heap_goal_bytes 0\n") {
		t.Error("/metrics memory gauges read zero on a serving daemon")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/engine", nil))
	var info struct {
		Shards     int      `json:"shards"`
		Documents  []string `json:"documents"`
		Generation string   `json:"generation"`
		Strategies []string `json:"planner_strategies"`
		ShardPools []struct {
			Size      int64 `json:"size_bytes"`
			Used      int64 `json:"used_bytes"`
			Followers int   `json:"followers"`
		} `json:"shard_pools"`
		Pool struct {
			WorkspaceBytes int64 `json:"session_workspace_bytes"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("/debug/engine: %v", err)
	}
	// One request has been served: exactly one session has a workspace.
	if got, want := info.Pool.WorkspaceBytes, s.pool.workspaceBytes(); got <= 0 || got != want {
		t.Errorf("debug session_workspace_bytes = %d, pool holds %d", got, want)
	}
	if info.Shards != eng.NumShards() {
		t.Errorf("debug shards = %d, want %d", info.Shards, eng.NumShards())
	}
	if len(info.Documents) != len(serverDocs) {
		t.Errorf("debug documents = %d, want %d", len(info.Documents), len(serverDocs))
	}
	if info.Generation == "" || len(info.Strategies) == 0 {
		t.Errorf("debug missing generation/strategies: %+v", info)
	}
	// Each shard's device maps two images and so does its one follower:
	// what the daemon maps is what its pools say it should.
	var mapped int64
	for i, sp := range info.ShardPools {
		if sp.Used <= 0 || sp.Used > sp.Size || sp.Followers != 1 {
			t.Errorf("debug shard_pools[%d] = %+v, want 0 < used <= size and one follower", i, sp)
		}
		mapped += 2 * sp.Size * int64(1+sp.Followers)
	}
	if len(info.ShardPools) != eng.NumShards() || mapped != nvm.MappedBytes() {
		t.Errorf("debug shard_pools = %+v account for %d mapped bytes, the process maps %d",
			info.ShardPools, mapped, nvm.MappedBytes())
	}
}

// TestServingEnginesGauge: what the appendable shards keep mapped to serve is
// readable from the daemon — /metrics and /debug/engine agree with the
// engine, and append-then-compact rounds leave the count where one round
// did: a shard's own engine, and one tail on the shards that took documents.
func TestServingEnginesGauge(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	h := s.Handler()
	read := func() int {
		t.Helper()
		want := eng.IngestStats().ServingEngines
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if line := fmt.Sprintf("ntadoc_ingest{stat=\"serving_engines\"} %d\n", want); !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metrics missing %q", line)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/engine", nil))
		var info struct {
			Serving int `json:"serving_engines"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("/debug/engine: %v", err)
		}
		if info.Serving != want {
			t.Errorf("debug serving_engines = %d, the engine keeps %d", info.Serving, want)
		}
		return want
	}
	if got := read(); got != eng.NumShards() {
		t.Errorf("%d serving engines before any append, want the %d shard engines", got, eng.NumShards())
	}
	var afterFirst int
	for round := 0; round < 6; round++ {
		if _, rec := postAppend(t, h, AppendRequest{Documents: []AppendDocument{
			{Name: fmt.Sprintf("live%d", round), Text: "one more document for the quick corpus"},
		}}); rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", round, rec.Code, rec.Body.String())
		}
		if got := read(); got > 3*eng.NumShards() {
			t.Errorf("round %d: %d serving engines with a delta, want at most three a shard", round, got)
		}
		if err := eng.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		got := read()
		if round == 1 { // both shards have taken a document by now
			afterFirst = got
		}
		if round > 1 && got != afterFirst {
			t.Errorf("round %d: %d serving engines after the compaction, %d after the second round's", round, got, afterFirst)
		}
	}
	if afterFirst != 2*eng.NumShards() {
		t.Errorf("%d serving engines once every shard has compacted, want %d", afterFirst, 2*eng.NumShards())
	}
}

// TestCloseOrdersSessionsBeforeEngineClose: closing the engine unmaps the
// device images the sessions read, so the two must be ordered, and the
// server's Close is what orders them — it returns only when no session is
// borrowed and none can be again.  Clients keep hammering the miss path
// across Close and the engine's Close; run under -race (make race) any
// traversal that overlapped the unmapping is a reported race on the device,
// and outside it a fault.
func TestCloseOrdersSessionsBeforeEngineClose(t *testing.T) {
	a, err := ntadoc.CompressSharded(serverDocs, 2)
	if err != nil {
		t.Fatalf("CompressSharded: %v", err)
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{IngestCapacity: 1 << 16})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := New(Config{Engine: eng, Sessions: 4, QueueDepth: 64, CacheEntries: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := s.Handler()

	var served, refused atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				if c == 0 {
					body := fmt.Sprintf(`{"documents":[{"name":"live%d","text":"the quick fox again"}]}`, i)
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", strings.NewReader(body)))
				} else {
					url := fmt.Sprintf("/v1/query?task=termvector&k=%d", 1+(c*1000+i)%50)
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				}
				switch rec.Code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusServiceUnavailable, http.StatusTooManyRequests, http.StatusInsufficientStorage:
					refused.Add(1)
				default:
					t.Errorf("client %d: status %d: %s", c, rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}
	for served.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if got := s.pool.idle(); got != 0 {
		t.Errorf("%d sessions are still on offer after Close", got)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("engine Close: %v", err)
	}
	before := refused.Load()
	for refused.Load() < before+20 { // clients are still arriving, and being refused
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestPoolHandsOutWarmSessions: the pool is a stack.  Serial requests keep
// reusing the one session that is already warm, two overlapping borrowers
// use two, and the rest of the pool never grows a workspace — rotating
// through all of them would multiply the daemon's working memory by
// sessions/clients for nothing.
func TestPoolHandsOutWarmSessions(t *testing.T) {
	s, _ := newTestServer(t, Config{Sessions: 8, CacheEntries: -1})
	h := s.Handler()
	for i := 0; i < 12; i++ {
		if _, rec := getResponse(t, h, "/v1/query?task=wordcount,rankedindex"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	warm := func() (n int) {
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		for _, sess := range s.pool.all {
			if sess.WorkspaceBytes() > 0 {
				n++
			}
		}
		return n
	}
	if got := warm(); got != 1 {
		t.Errorf("12 serial requests warmed %d sessions, want 1", got)
	}

	ctx := context.Background()
	a, err := s.pool.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.pool.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorkspaceBytes() == 0 {
		t.Error("the first session handed out is not the warm one")
	}
	s.pool.release(a)
	s.pool.release(b)
	if got, err := s.pool.acquire(ctx); err != nil || got != b {
		t.Errorf("acquire after releasing a then b returned another session (err %v), want b, the last released", err)
	} else {
		s.pool.release(got)
	}
	if got := s.pool.idle(); got != 8 {
		t.Errorf("pool idle = %d, want 8", got)
	}
}
