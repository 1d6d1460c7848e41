package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	runtimemetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Engine is the loaded engine the server fronts (required).  The
	// server owns its query scheduling: nothing else may run engine task
	// methods while the server is serving, and the engine is closed only
	// after the server's own Close has returned.
	Engine *ntadoc.Engine
	// Sessions bounds concurrent traversals: the size of the query-session
	// pool (default 8).
	Sessions int
	// QueueDepth bounds requests waiting for a session before the server
	// sheds load with 429 (default 4x Sessions).
	QueueDepth int
	// CacheEntries bounds the result cache (default 512; 0 disables).
	CacheEntries int
	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// HandlerDelay, when non-zero, sleeps each query handler before
	// execution.  Test hook only: the e2e harness uses it to hold requests
	// in flight across a SIGTERM and observe the graceful drain.
	HandlerDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Sessions
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server serves analytics batches over a loaded archive.  One archive open
// is amortized across every request: concurrent queries borrow read-only
// sessions from the pool (admission-controlled), identical in-flight
// batches coalesce into one traversal, and hot results are served from an
// LRU cache keyed by (generation, canonical batch signature).
//
// When a query session surfaces a device failure (a dead shard primary),
// the server quiesces the pool, drives the engine's failover recovery, and
// bumps the cache generation — no result computed against the dead primary
// can be served after recovery.
type Server struct {
	cfg Config
	eng *ntadoc.Engine

	pool  *sessionPool
	cache *resultCache
	coal  *coalescer

	// appendMu serializes /v1/append admissions; queries never take it.
	appendMu sync.Mutex

	// gen counts recovery epochs; the cache generation string combines it
	// with the archive build tag (tagPrefix, "<8 hex digits>.", fixed for the
	// engine's lifetime) and the corpus epoch.
	gen       atomic.Uint64
	tagPrefix string
	// down latches when recovery fails: the engine lost a shard with no
	// follower left, so the server can only refuse traffic.
	down atomic.Bool

	// recoverMu serializes recoveries; recoverBusy dedupes triggers from
	// concurrent failed requests.
	recoverMu   sync.Mutex
	recoverBusy atomic.Bool

	// execute runs one batch on a pooled session and returns the encoded
	// result body; tests override it to inject failures the simulated read
	// path cannot produce.
	execute func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error)

	// Serving counters, exported via /metrics.
	reqOK        atomic.Int64
	bodyBytes    atomic.Int64 // result bodies of the ok responses, hit or miss
	reqErr       atomic.Int64
	reqShed      atomic.Int64
	reqCanceled  atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	coalesced    atomic.Int64
	recoveries   atomic.Int64
	appendsOK    atomic.Int64
	appendsErr   atomic.Int64
	docsIngested atomic.Int64
}

// New builds a server over a loaded engine, opening its session pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: no engine")
	}
	pool, err := newSessionPool(cfg.Engine, cfg.Sessions, cfg.QueueDepth)
	if err != nil {
		return nil, fmt.Errorf("server: opening session pool: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		eng:   cfg.Engine,
		pool:  pool,
		cache: newResultCache(cfg.CacheEntries),
		coal:  newCoalescer(),

		tagPrefix: fmt.Sprintf("%08x.", cfg.Engine.BuildTag()),
	}
	s.execute = func(ctx context.Context, sess *ntadoc.QuerySession, spec ntadoc.BatchSpec) ([]byte, error) {
		return sess.RunSpecJSON(ctx, spec)
	}
	return s, nil
}

// Close quiesces the server so that its engine can be closed after it: it
// stops admitting queries and appends and returns once every borrowed
// session is back and any append in flight has finished.  Closing the
// engine unmaps its device images, and a traversal still reading one would
// fault; the pool drain is what orders the two.  Later requests answer 503.
func (s *Server) Close() {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	// A server that latched down did so with its pool already drained.
	if !s.down.Swap(true) {
		s.pool.drain()
	}
	// An append that passed its down check before the swap holds appendMu.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleBatch)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/append", s.handleAppend)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/engine", s.handleDebug)
	return mux
}

// Generation identifies the archive build, recovery epoch, and corpus
// epoch: results and cache keys are scoped to it.  It changes whenever the
// engine recovers from a failure and whenever an append batch commits or a
// compaction runs — a committed append is therefore never masked by a
// cached pre-append result.
func (s *Server) Generation() string {
	return string(s.appendGeneration(make([]byte, 0, 32)))
}

// appendGeneration appends "<build tag, 8 hex digits>.<recovery epoch>.<corpus epoch>".
func (s *Server) appendGeneration(dst []byte) []byte {
	dst = append(dst, s.tagPrefix...)
	dst = strconv.AppendUint(dst, s.gen.Load(), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, s.eng.CorpusEpoch(), 10)
}

// maxQueryBody bounds the JSON body of POST /v1/query and /v1/batch: a
// request names a few tasks and one integer, so 1 MiB is far beyond any
// legitimate one.  Larger bodies are refused with 413.
const maxQueryBody = 1 << 20

// parseRequest accepts GET query parameters or a POST JSON body.
func parseRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req := Request{Task: q.Get("task"), Tasks: q["tasks"]}
		if ks := q.Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil {
				return Request{}, fmt.Errorf("bad k: %v", err)
			}
			req.TermVectorK = k
		}
		return req, nil
	case http.MethodPost:
		var req Request
		body := http.MaxBytesReader(w, r.Body, maxQueryBody)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return Request{}, fmt.Errorf("bad request body: %w", err)
		}
		return req, nil
	default:
		return Request{}, fmt.Errorf("method %s not allowed", r.Method)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(w, r)
	if err != nil {
		s.reqErr.Add(1)
		status := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		s.reqErr.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.serve(w, r, spec)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request, spec ntadoc.BatchSpec) {
	if s.down.Load() {
		s.reqErr.Add(1)
		http.Error(w, "engine down: unrecoverable device failure", http.StatusServiceUnavailable)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if d := s.cfg.HandlerDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}

	// One buffer holds the cache/coalescer key "<generation>|<signature>";
	// the envelope's two header fields are cut from the same string.
	buf := append(s.appendGeneration(make([]byte, 0, 128)), '|')
	cut := len(buf)
	key := string(spec.AppendSignature(buf))
	gen, sig := key[:cut-1], key[cut:]
	if body, ok := s.cache.get(gen, key); ok {
		s.cacheHits.Add(1)
		s.reqOK.Add(1)
		s.bodyBytes.Add(int64(len(body)))
		writeResponse(w, gen, sig, body, true, false)
		return
	}
	s.cacheMisses.Add(1)

	body, shared, err := s.coal.do(ctx, key, func() ([]byte, error) {
		sess, err := s.pool.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer s.pool.release(sess)
		b, err := s.execute(ctx, sess, spec)
		if err != nil {
			return nil, err
		}
		s.cache.put(gen, key, b)
		return b, nil
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if shared {
		s.coalesced.Add(1)
	}
	s.reqOK.Add(1)
	s.bodyBytes.Add(int64(len(body)))
	writeResponse(w, gen, sig, body, false, shared)
}

// writeResponse frames the Response envelope around an encoded result body:
// the header fields are appended to a small buffer and body — the bytes the
// encoder produced, shared with the cache and any coalesced requests — is
// written as it is, never re-marshaled or copied.  "result" stays the last
// field, so the body is exactly what lies between its marker and the closing
// "}\n".
func writeResponse(w http.ResponseWriter, gen, sig string, body []byte, cached, coalesced bool) {
	hdr := append(make([]byte, 0, 192), `{"generation":`...)
	hdr = wire.AppendString(hdr, gen)
	hdr = append(hdr, `,"signature":`...)
	hdr = wire.AppendString(hdr, sig)
	if cached {
		hdr = append(hdr, `,"cached":true`...)
	}
	if coalesced {
		hdr = append(hdr, `,"coalesced":true`...)
	}
	hdr = append(hdr, `,"result":`...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+len(body)+len(envelopeTail)))
	// A failed write means the client is gone: nothing useful to do.
	if _, err := w.Write(hdr); err != nil {
		return
	}
	if _, err := w.Write(body); err != nil {
		return
	}
	_, _ = w.Write(envelopeTail)
}

// envelopeTail closes the envelope after the result body.
var envelopeTail = []byte("}\n")

// fail maps an execution error to its HTTP status, triggering recovery on
// device failures.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case err == ErrOverloaded:
		s.reqShed.Add(1)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case err == ErrRecovering:
		s.reqErr.Add(1)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case r.Context().Err() != nil:
		// The client disconnected; the batch was canceled on its behalf.
		s.reqCanceled.Add(1)
	case ctxErr(err):
		s.reqErr.Add(1)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case ntadoc.IsDeviceFailure(err):
		s.reqErr.Add(1)
		s.triggerRecovery()
		http.Error(w, "device failure, recovering", http.StatusServiceUnavailable)
	default:
		s.reqErr.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// triggerRecovery starts one background recovery; concurrent failures while
// it runs fold into the same attempt.
func (s *Server) triggerRecovery() {
	if !s.recoverBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.recoverBusy.Store(false)
		s.recoverNow()
	}()
}

// recoverNow quiesces the session pool, drives the engine's failover
// recovery, and — on success — installs fresh sessions and a new cache
// generation.  If recovery fails (no follower left) the server latches
// down.
func (s *Server) recoverNow() {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	if s.down.Load() {
		return
	}
	s.pool.drain()
	if err := s.eng.Recover(); err != nil {
		s.down.Store(true)
		return
	}
	if err := s.pool.refill(s.eng); err != nil {
		s.down.Store(true)
		return
	}
	s.gen.Add(1) // the cache drops the old generation's entries on its next use
	s.recoveries.Add(1)
}

// handleAppend admits one append batch: the documents are tokenized and
// committed durably as a unit, and the response carries the corpus epoch
// the batch became visible at.  Appends are serialized server-side; they
// never block in-flight queries (each query finishes on its pinned corpus
// cut).  A compaction swap in progress maps to 503 + Retry-After, so
// clients simply retry; a full append log maps to 507 (the corpus must be
// recompressed).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.down.Load() {
		s.appendsErr.Add(1)
		http.Error(w, "engine down: unrecoverable device failure", http.StatusServiceUnavailable)
		return
	}
	// A batch the append log could hold is no longer than the log plus its
	// JSON framing, so nothing longer is read: 413, not an unbounded buffer.
	var req AppendRequest
	body := http.MaxBytesReader(w, r.Body, s.eng.IngestStats().LogCapacity+maxQueryBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.appendsErr.Add(1)
		status := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
		return
	}
	if len(req.Documents) == 0 {
		s.appendsErr.Add(1)
		http.Error(w, "no documents", http.StatusBadRequest)
		return
	}
	docs := make([]ntadoc.Document, len(req.Documents))
	for i, d := range req.Documents {
		if d.Name == "" {
			s.appendsErr.Add(1)
			http.Error(w, fmt.Sprintf("document %d has no name", i), http.StatusBadRequest)
			return
		}
		docs[i] = ntadoc.Document{Name: d.Name, Text: d.Text}
	}
	s.appendMu.Lock()
	if s.down.Load() { // checked again under the lock Close waits on
		s.appendMu.Unlock()
		s.appendsErr.Add(1)
		http.Error(w, "engine down", http.StatusServiceUnavailable)
		return
	}
	err := s.eng.Append(docs)
	s.appendMu.Unlock()
	switch {
	case errors.Is(err, ntadoc.ErrCompacting):
		s.appendsErr.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "compaction in progress; retry append", http.StatusServiceUnavailable)
		return
	case errors.Is(err, ntadoc.ErrIngestFull):
		s.appendsErr.Add(1)
		http.Error(w, "append log full; recompress the corpus", http.StatusInsufficientStorage)
		return
	case errors.Is(err, ntadoc.ErrNoIngest):
		s.appendsErr.Add(1)
		http.Error(w, "engine built without ingestion support", http.StatusNotImplemented)
		return
	case err != nil:
		s.appendsErr.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.appendsOK.Add(1)
	s.docsIngested.Add(int64(len(docs)))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(AppendResponse{
		Appended:   len(docs),
		Epoch:      s.eng.CorpusEpoch(),
		Generation: s.Generation(),
	})
}

// handleIngest reports the live ingestion state — what `ntadoc tail` polls.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	st := s.eng.IngestStats()
	names := s.eng.DocumentNames()
	info := IngestInfo{
		Generation:    s.Generation(),
		Epoch:         s.eng.CorpusEpoch(),
		Documents:     len(names),
		Batches:       st.Batches,
		AppendedDocs:  st.AppendedDocs,
		LogBytes:      st.LogBytes,
		LogCapacity:   st.LogCapacity,
		DeltaDocs:     st.DeltaDocs,
		DeltaSymbols:  st.DeltaSymbols,
		CompactedDocs: uint64(st.CompactedDocs),
		Compactions:   st.Compactions,
	}
	if n := len(names); n > 0 {
		// The tail of the name table lets a follower print newly appended
		// documents without shipping the whole corpus each poll.
		tail := n - maxIngestNames
		if tail < 0 {
			tail = 0
		}
		info.LastDocuments = names[tail:]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

// maxIngestNames bounds the name tail /v1/ingest returns.
const maxIngestNames = 32

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics writes Prometheus-style text: serving counters plus the
// modeled instrumentation (phase spans, device statistics) the evaluation
// harness reads.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	p("# HELP ntadoc_requests_total Served requests by outcome.")
	p("# TYPE ntadoc_requests_total counter")
	p(`ntadoc_requests_total{outcome="ok"} %d`, s.reqOK.Load())
	p(`ntadoc_requests_total{outcome="error"} %d`, s.reqErr.Load())
	p(`ntadoc_requests_total{outcome="shed"} %d`, s.reqShed.Load())
	p(`ntadoc_requests_total{outcome="canceled"} %d`, s.reqCanceled.Load())
	p("# TYPE ntadoc_cache_hits_total counter")
	p("ntadoc_cache_hits_total %d", s.cacheHits.Load())
	p("# TYPE ntadoc_cache_misses_total counter")
	p("ntadoc_cache_misses_total %d", s.cacheMisses.Load())
	p("# TYPE ntadoc_coalesced_total counter")
	p("ntadoc_coalesced_total %d", s.coalesced.Load())
	p("# TYPE ntadoc_recoveries_total counter")
	p("ntadoc_recoveries_total %d", s.recoveries.Load())
	p("# TYPE ntadoc_failovers_total counter")
	p("ntadoc_failovers_total %d", s.eng.FailoverCount())
	p("# TYPE ntadoc_sessions_idle gauge")
	p("ntadoc_sessions_idle %d", s.pool.idle())
	p("# TYPE ntadoc_sessions_queued gauge")
	p("ntadoc_sessions_queued %d", s.pool.queued())
	p("# HELP ntadoc_session_workspace_bytes Traversal working memory the pooled sessions keep warm.")
	p("# TYPE ntadoc_session_workspace_bytes gauge")
	p("ntadoc_session_workspace_bytes %d", s.pool.workspaceBytes())
	p("# TYPE ntadoc_cache_entries gauge")
	p("ntadoc_cache_entries %d", s.cache.len())
	p("# HELP ntadoc_cache_bytes Total bytes of cached result bodies.")
	p("# TYPE ntadoc_cache_bytes gauge")
	p("ntadoc_cache_bytes %d", s.cache.size())
	p("# TYPE ntadoc_generation_epoch gauge")
	p("ntadoc_generation_epoch %d", s.gen.Load())
	p("# HELP ntadoc_corpus_epoch Committed append batches plus compactions.")
	p("# TYPE ntadoc_corpus_epoch counter")
	p("ntadoc_corpus_epoch %d", s.eng.CorpusEpoch())
	p("# TYPE ntadoc_appends_total counter")
	p(`ntadoc_appends_total{outcome="ok"} %d`, s.appendsOK.Load())
	p(`ntadoc_appends_total{outcome="error"} %d`, s.appendsErr.Load())
	p("# TYPE ntadoc_appended_documents_total counter")
	p("ntadoc_appended_documents_total %d", s.docsIngested.Load())

	ing := s.eng.IngestStats()
	p("# HELP ntadoc_ingest Live ingestion state summed across shards.")
	p("# TYPE ntadoc_ingest gauge")
	p(`ntadoc_ingest{stat="batches"} %d`, ing.Batches)
	p(`ntadoc_ingest{stat="appended_docs"} %d`, ing.AppendedDocs)
	p(`ntadoc_ingest{stat="log_bytes"} %d`, ing.LogBytes)
	p(`ntadoc_ingest{stat="log_capacity"} %d`, ing.LogCapacity)
	p(`ntadoc_ingest{stat="delta_docs"} %d`, ing.DeltaDocs)
	p(`ntadoc_ingest{stat="delta_symbols"} %d`, ing.DeltaSymbols)
	p(`ntadoc_ingest{stat="compacted_docs"} %d`, ing.CompactedDocs)
	p(`ntadoc_ingest{stat="compactions"} %d`, ing.Compactions)
	p(`ntadoc_ingest{stat="serving_engines"} %d`, ing.ServingEngines)

	init, trav := s.eng.PhaseTimes()
	p("# HELP ntadoc_phase_modeled_nanos Modeled time of the last task's phases.")
	p("# TYPE ntadoc_phase_modeled_nanos gauge")
	p(`ntadoc_phase_modeled_nanos{phase="initialization"} %d`, init.Nanoseconds())
	p(`ntadoc_phase_modeled_nanos{phase="traversal"} %d`, trav.Nanoseconds())
	dev, dram := s.eng.MemoryFootprint()
	p("# TYPE ntadoc_footprint_bytes gauge")
	p(`ntadoc_footprint_bytes{tier="device"} %d`, dev)
	p(`ntadoc_footprint_bytes{tier="dram"} %d`, dram)
	// Where the process's memory is: resident memory is about the heap goal
	// plus the touched prefix of every mapped image (/debug/engine has each
	// pool's) plus stacks and runtime structures.
	heap := []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	runtimemetrics.Read(heap)
	p("# HELP ntadoc_device_mapped_bytes Address space mapped by device images, live or discarded and waiting for reuse; only touched pages are resident.")
	p("# TYPE ntadoc_device_mapped_bytes gauge")
	p(`ntadoc_device_mapped_bytes{images="live"} %d`, nvm.MappedBytes())
	p(`ntadoc_device_mapped_bytes{images="recycled"} %d`, nvm.RecycledBytes())
	p("# HELP ntadoc_go_heap_live_bytes Heap the last garbage collection marked live.")
	p("# TYPE ntadoc_go_heap_live_bytes gauge")
	p("ntadoc_go_heap_live_bytes %d", heap[0].Value.Uint64())
	p("# HELP ntadoc_go_heap_goal_bytes Heap size the garbage collector lets the process reach before the next cycle ends.")
	p("# TYPE ntadoc_go_heap_goal_bytes gauge")
	p("ntadoc_go_heap_goal_bytes %d", heap[1].Value.Uint64())
	p("# TYPE ntadoc_go_alloc_bytes_total counter")
	p("ntadoc_go_alloc_bytes_total %d", heap[2].Value.Uint64())
	p("# TYPE ntadoc_go_gc_cycles_total counter")
	p("ntadoc_go_gc_cycles_total %d", heap[3].Value.Uint64())
	p("# HELP ntadoc_response_body_bytes_total Result-body bytes of the ok responses, cached or computed; ntadoc_go_alloc_bytes_total over it is the bytes allocated per byte served.")
	p("# TYPE ntadoc_response_body_bytes_total counter")
	p("ntadoc_response_body_bytes_total %d", s.bodyBytes.Load())

	st := s.eng.DeviceCounters()
	p("# HELP ntadoc_device Simulated device counters summed across shards.")
	p("# TYPE ntadoc_device counter")
	p(`ntadoc_device{counter="reads"} %d`, st.Reads)
	p(`ntadoc_device{counter="writes"} %d`, st.Writes)
	p(`ntadoc_device{counter="bytes_read"} %d`, st.BytesRead)
	p(`ntadoc_device{counter="bytes_written"} %d`, st.BytesWritten)
	p(`ntadoc_device{counter="granule_reads"} %d`, st.GranuleReads)
	p(`ntadoc_device{counter="granule_writes"} %d`, st.GranuleWrites)
	p(`ntadoc_device{counter="cache_hits"} %d`, st.CacheHits)
	p(`ntadoc_device{counter="cache_misses"} %d`, st.CacheMisses)
	p(`ntadoc_device{counter="flushes"} %d`, st.Flushes)
	p(`ntadoc_device{counter="drains"} %d`, st.Drains)
	p(`ntadoc_device{counter="seeks"} %d`, st.Seeks)
	p(`ntadoc_device{counter="modeled_nanos"} %d`, st.ModeledNanos)
}

// handleDebug reports shard, replica, planner, pool, and cache state.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	type poolInfo struct {
		Sessions       int   `json:"sessions"`
		Idle           int   `json:"idle"`
		Queued         int   `json:"queued"`
		QueueDepth     int   `json:"queue_depth"`
		WorkspaceBytes int64 `json:"session_workspace_bytes"`
	}
	type cacheInfo struct {
		Entries int `json:"entries"`
		Max     int `json:"max"`
	}
	type shardPoolInfo struct {
		Size      int64 `json:"size_bytes"`
		Used      int64 `json:"used_bytes"`
		Followers int   `json:"followers"`
	}
	var pools []shardPoolInfo
	for _, sp := range s.eng.ShardPools() {
		pools = append(pools, shardPoolInfo(sp))
	}
	info := struct {
		Generation string          `json:"generation"`
		BuildTag   string          `json:"build_tag"`
		Down       bool            `json:"down"`
		Shards     int             `json:"shards"`
		Documents  []string        `json:"documents"`
		Strategies []string        `json:"planner_strategies"`
		ShardPools []shardPoolInfo `json:"shard_pools"`
		Replicas   []int           `json:"live_followers,omitempty"`
		Failovers  int             `json:"failovers"`
		Recoveries int64           `json:"recoveries"`
		Serving    int             `json:"serving_engines"`
		Pool       poolInfo        `json:"pool"`
		Cache      cacheInfo       `json:"cache"`
	}{
		Generation: s.Generation(),
		BuildTag:   fmt.Sprintf("%08x", s.eng.BuildTag()),
		Down:       s.down.Load(),
		Shards:     s.eng.NumShards(),
		Documents:  s.eng.DocumentNames(),
		Strategies: s.eng.ShardStrategies(),
		ShardPools: pools,
		Replicas:   s.eng.LiveFollowers(),
		Failovers:  s.eng.FailoverCount(),
		Recoveries: s.recoveries.Load(),
		Serving:    s.eng.IngestStats().ServingEngines,
		Pool: poolInfo{
			Sessions:       s.cfg.Sessions,
			Idle:           s.pool.idle(),
			Queued:         s.pool.queued(),
			QueueDepth:     s.cfg.QueueDepth,
			WorkspaceBytes: s.pool.workspaceBytes(),
		},
		Cache: cacheInfo{Entries: s.cache.len(), Max: s.cfg.CacheEntries},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&info)
}
