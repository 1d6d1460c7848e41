package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

// env is what every run shares: where the repository and the built daemon
// are, where temporary files go, and the input seed and scale.
type env struct {
	root  string
	bin   string // built ntadocd
	tmp   string // removed when the program exits
	seed  int64
	scale float64 // 1, or quickScale under -quick
	// daemons tracks the running children so a signal can end them.
	daemons *daemonSet
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runStats is the outcome of one loaded run of a workload.
type runStats struct {
	// Metrics holds the end-to-end metrics (and live-ingest's own two).
	Metrics map[string]metric
	// Layer holds the per-layer metrics only a loaded run can yield: the
	// daemon's /metrics ratios, the generator's validity checks, and the
	// persistence counts of the engine task path.
	Layer     map[string]metric
	Attempted int
	Failed    int
	FirstErr  error
	Invalid   []string       // validity checks that failed
	Info      map[string]any // sizing actually used, for the JSON report

	// Inputs kept for the traced pass.
	corpus   *corpus
	baseDocs int
	archive  []byte
}

func (s *runStats) fail(err error) { s.absorb(0, 1, err) }

// absorb adds a loop's counts to the run's.
func (s *runStats) absorb(attempted, failed int, firstErr error) {
	s.Attempted += attempted
	s.Failed += failed
	if s.FirstErr == nil {
		s.FirstErr = firstErr
	}
}

// describe records the sizing the run used, for the JSON report.
func (s *runStats) describe(clients int, seconds float64, c *corpus) {
	s.Info["clients"] = clients
	s.Info["window_s"] = seconds
	s.Info["corpus_tokens"] = c.tokens(0, len(c.Files))
	s.Info["corpus_docs"] = len(c.Files)
}

// setLatency fills the three throughput/latency metrics from a load loop.
func (s *runStats) setLatency(ls *loadStats) {
	sorted := ls.latencies()
	sort.Float64s(sorted)
	n := len(sorted)
	s.Metrics["throughput_rps"] = metric{ls.Rate, "req/s", n}
	s.Metrics["query_p50_ms"] = metric{typicalLatency(ls.BySpec), "ms", n}
	s.Metrics["query_p95_ms"] = metric{percentile(sorted, 95), "ms", n}
	s.Layer["gen.samples"] = metric{float64(n), "count", n}
}

// engineProbe is the paper-side measurement of one engine: the modeled
// traversal time of the six single tasks on their first pass, with the
// device counts taken at the same boundary.
type engineProbe struct {
	ModeledMs     float64
	FlushesPerOp  float64
	BytesPerOp    float64
	InitModeledMs float64
	Results       []*ntadoc.BatchResult // one per task, in ntadoc.AllTasks order
}

func probeEngine(eng *ntadoc.Engine) (engineProbe, error) {
	var p engineProbe
	c0 := eng.DeviceCounters()
	for _, t := range ntadoc.AllTasks {
		res, err := eng.RunBatch(t)
		if err != nil {
			return p, fmt.Errorf("%s: %w", t, err)
		}
		init, trav := eng.PhaseTimes()
		p.ModeledMs += float64(trav.Nanoseconds()) / 1e6
		p.InitModeledMs = float64(init.Nanoseconds()) / 1e6
		p.Results = append(p.Results, res)
	}
	c1 := eng.DeviceCounters()
	n := float64(len(ntadoc.AllTasks))
	p.FlushesPerOp = float64(c1.Flushes-c0.Flushes) / n
	p.BytesPerOp = float64(c1.BytesWritten-c0.BytesWritten) / n
	return p, nil
}

// setModeled records both persistence strategies' probes.
func (s *runStats) setModeled(phase, op engineProbe) {
	s.Metrics["modeled_phase_ms"] = metric{phase.ModeledMs, "ms", len(ntadoc.AllTasks)}
	s.Metrics["modeled_oplevel_ms"] = metric{op.ModeledMs, "ms", len(ntadoc.AllTasks)}
	s.Layer["nvm.flushes_per_task.phase"] = metric{phase.FlushesPerOp, "count", len(ntadoc.AllTasks)}
	s.Layer["nvm.flushes_per_task.oplevel"] = metric{op.FlushesPerOp, "count", len(ntadoc.AllTasks)}
	s.Layer["nvm.bytes_written_per_task.oplevel"] = metric{op.BytesPerOp, "bytes", len(ntadoc.AllTasks)}
	s.Layer["core.init_modeled_ms"] = metric{phase.InitModeledMs, "ms", 1}
}

func newRunStats() *runStats {
	return &runStats{
		Metrics: map[string]metric{},
		// Only a workload with an appender overwrites these two.
		Layer: map[string]metric{
			"core.append_retry_ratio": {0, "ratio", 0},
			"core.compactions":        {0, "count", 0},
		},
		Info: map[string]any{},
	}
}

// runWorkload runs one loaded pass of w for the given window, setting up
// reps times (the last set-up is the one measured on).
func runWorkload(e *env, w *workloadDef, seconds float64, reps int) (*runStats, error) {
	if w.DaemonFlags == nil {
		return runEngineWorkload(e, w, seconds, reps)
	}
	return runDaemonWorkload(e, w, seconds, reps)
}

// runDaemonWorkload drives the real ntadocd binary over loopback HTTP.
func runDaemonWorkload(e *env, w *workloadDef, seconds float64, reps int) (*runStats, error) {
	st := newRunStats()
	window := time.Duration(seconds * float64(time.Second))

	spec := w.Dataset.Scaled(e.scale)
	base, batches := spec.Files, 0
	if w.Ingest {
		batches = int(appendRate * seconds)
		spec.Files += batches * appendBatch
	}
	c := makeCorpus(spec, e.seed)
	dct := c.dictionary()
	st.corpus, st.baseDocs = c, base

	// Set-up: compress, write the archive, start the daemon, first healthy
	// answer.  Corpus generation and the build of ntadocd are outside it.
	path := filepath.Join(e.tmp, w.Name+".tdc")
	var (
		setups []float64
		a      *ntadoc.Archive
		d      *daemon
	)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		a, err = ntadoc.CompressTokensSharded(c.Files[:base], c.Names[:base], dct, w.Shards)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		d, err = startDaemon(e.daemons, e.bin, path, w.DaemonFlags...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st.archive = buf.Bytes()
		if r < reps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill() // no-op once stop has reaped the child
	st.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	st.Metrics["archive_bytes_ratio"] = metric{float64(len(st.archive)) / float64(4*c.tokens(0, base)), "ratio", 1}

	// The paper's metric on this corpus, and the reference results every
	// response is compared with, from engines of this process.
	expected, err := st.probeArchive(a, w.Mix, !w.Ingest)
	if err != nil {
		return nil, err
	}

	hc := newClient(w.Clients + 1)
	urls := make([]string, len(w.Mix))
	for i, m := range w.Mix {
		urls[i] = d.base + "/v1/query?task=" + taskCSV(m)
	}
	bufs := make([]bytes.Buffer, w.Clients)
	lastEpoch := make([]uint64, w.Clients)
	do := func(client, si int) error {
		buf := &bufs[client]
		if err := getBody(hc, urls[si], buf); err != nil {
			return err
		}
		if w.Ingest {
			epoch, err := envelopeEpoch(buf.Bytes())
			if err != nil {
				return err
			}
			if epoch < lastEpoch[client] {
				return fmt.Errorf("%s: corpus epoch went back from %d to %d", w.Mix[si].Signature(), lastEpoch[client], epoch)
			}
			lastEpoch[client] = epoch
			return nil
		}
		res, err := envelopeResult(buf.Bytes())
		if err != nil {
			return err
		}
		if !bytes.Equal(res, expected[si]) {
			return fmt.Errorf("%s: result differs from Engine.RunSpec+EncodeResult (%d bytes, want %d)", w.Mix[si].Signature(), len(res), len(expected[si]))
		}
		return nil
	}

	// One untimed cycle: it fills the cache where there is one and lets lazy
	// set-up finish everywhere else.
	for si := range w.Mix {
		st.Attempted++
		if err := do(0, si); err != nil {
			st.fail(err)
		}
	}

	var bodies [][]byte
	if w.Ingest {
		bodies = make([][]byte, batches)
		for i := range bodies {
			lo := base + i*appendBatch
			req := server.AppendRequest{}
			for _, doc := range c.documents(lo, lo+appendBatch) {
				req.Documents = append(req.Documents, server.AppendDocument{Name: doc.Name, Text: doc.Text})
			}
			if bodies[i], err = json.Marshal(req); err != nil {
				return nil, err
			}
		}
	}

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	stream := makeStream(e.seed, len(w.Mix), 1<<16)
	cpu0, wall0 := cpuSeconds(), time.Now()
	var ol *openLoopStats
	appended := make(chan struct{})
	if w.Ingest {
		go func() {
			defer close(appended)
			ol = runAppender(d.base, bodies, wall0)
		}()
	} else {
		close(appended)
	}
	ls := closedLoop(w.Clients, window, w.Think, stream, len(w.Mix), do)
	<-appended
	wall := time.Since(wall0).Seconds()
	cpu := cpuSeconds() - cpu0
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	st.absorb(ls.Attempted, ls.Failed, ls.FirstErr)
	st.setLatency(ls)
	late := ls.Gaps
	if w.Ingest {
		st.absorb(ol.Attempted, ol.Failed, ol.FirstErr)
		lat := sortedCopy(ol.Lat)
		st.Metrics["append_p50_ms"] = metric{percentile(lat, 50), "ms", len(lat)}
		st.Metrics["append_p95_ms"] = metric{percentile(lat, 95), "ms", len(lat)}
		st.Layer["core.append_retry_ratio"] = metric{float64(ol.Retries) / float64(max(ol.Attempted, 1)), "ratio", ol.Attempted}
		late = ol.Late
		st.verifyIngest(hc, d.base, c, w.Mix)
		info, err := ingestInfo(hc, d.base)
		if err != nil {
			return nil, err
		}
		st.Layer["core.compactions"] = metric{float64(info.Compactions), "count", 1}
		st.Info["append_batches"] = ol.Attempted
		st.Info["append_log_bytes"] = info.LogBytes
		st.Info["documents_end"] = info.Documents
	}
	st.Layer["gen.late_p95_ms"] = metric{percentile(sortedCopy(late), 95), "ms", len(late)}
	st.Layer["gen.cpu_share"] = metric{cpu / wall, "ratio", 1}
	if v := st.Layer["gen.late_p95_ms"].Value; v > lateLimitMs {
		st.Invalid = append(st.Invalid, fmt.Sprintf("gen.late_p95_ms %.1f > %.0f", v, lateLimitMs))
	}
	if v := cpu / wall; v > cpuShareLimit {
		st.Invalid = append(st.Invalid, fmt.Sprintf("gen.cpu_share %.2f > %.1f", v, cpuShareLimit))
	}
	st.setServerRatios(before, after)

	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	st.Metrics["peak_rss_mb"] = metric{rss, "MiB", 1}
	if err := d.stop(); err != nil {
		return nil, err
	}
	st.describe(w.Clients, seconds, c)
	return st, nil
}

// probeArchive builds one engine per persistence strategy over the archive,
// records the modeled metrics of their first pass, and (when wanted) returns
// the encoded reference result of every mix entry.
func (s *runStats) probeArchive(a *ntadoc.Archive, mix []ntadoc.BatchSpec, wantExpected bool) ([][]byte, error) {
	var probes [2]engineProbe
	var expected [][]byte
	for i, p := range []ntadoc.Persistence{ntadoc.PhaseLevel, ntadoc.OperationLevel} {
		eng, err := ntadoc.NewEngine(a, ntadoc.Options{Persistence: p})
		if err != nil {
			return nil, err
		}
		probes[i], err = probeEngine(eng)
		if err == nil && i == 0 && wantExpected {
			expected, err = referenceResults(eng, mix)
		}
		eng.Close()
		if err != nil {
			return nil, err
		}
	}
	s.setModeled(probes[0], probes[1])
	return expected, nil
}

// referenceResults encodes Engine.RunSpec of every mix entry the way the
// daemon does, once; responses are compared with these bytes.
func referenceResults(eng *ntadoc.Engine, mix []ntadoc.BatchSpec) ([][]byte, error) {
	out := make([][]byte, len(mix))
	names := eng.DocumentNames()
	for i, spec := range mix {
		res, err := eng.RunSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", spec.Signature(), err)
		}
		if out[i], err = server.EncodeResult(res, names); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setServerRatios turns two /metrics scrapes into the server-layer ratios.
func (s *runStats) setServerRatios(before, after map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("ntadoc_cache_hits_total"), delta("ntadoc_cache_misses_total")
	ok := delta(`ntadoc_requests_total{outcome="ok"}`)
	shed := delta(`ntadoc_requests_total{outcome="shed"}`)
	all := ok + shed + delta(`ntadoc_requests_total{outcome="error"}`) + delta(`ntadoc_requests_total{outcome="canceled"}`)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := int(all)
	s.Layer["server.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio", n}
	s.Layer["server.coalesced_ratio"] = metric{ratio(delta("ntadoc_coalesced_total"), ok), "ratio", n}
	s.Layer["server.shed_ratio"] = metric{ratio(shed, all), "ratio", n}
	s.Layer["server.cache_entries_end"] = metric{after["ntadoc_cache_entries"], "count", 1}
	s.Layer["server.cache_bytes_end"] = metric{after["ntadoc_cache_bytes"], "bytes", 1}
}

// runAppender posts the pre-rendered batches open loop at appendRate on one
// connection, retrying 503 (a compaction swap in progress) after a short
// wait.  Every acknowledgement must carry a non-decreasing corpus epoch.
func runAppender(base string, bodies [][]byte, start time.Time) *openLoopStats {
	hc := newClient(1)
	interval := time.Duration(float64(time.Second) / appendRate)
	var lastEpoch uint64
	return openLoop(start, interval, len(bodies), nil, func(i int) (int, error) {
		for retries := 0; ; retries++ {
			resp, err := hc.Post(base+"/v1/append", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				return retries, err
			}
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" && retries < 100 {
				drain(resp)
				time.Sleep(retryBackoffMs * time.Millisecond)
				continue
			}
			var ack server.AppendResponse
			derr := json.NewDecoder(resp.Body).Decode(&ack)
			drain(resp)
			switch {
			case resp.StatusCode != http.StatusOK:
				return retries, fmt.Errorf("append batch %d: %s", i, resp.Status)
			case derr != nil:
				return retries, fmt.Errorf("append batch %d: %v", i, derr)
			case ack.Appended != appendBatch:
				return retries, fmt.Errorf("append batch %d: acknowledged %d documents, sent %d", i, ack.Appended, appendBatch)
			case ack.Epoch < lastEpoch:
				return retries, fmt.Errorf("append batch %d: corpus epoch went back from %d to %d", i, lastEpoch, ack.Epoch)
			}
			lastEpoch = ack.Epoch
			return retries, nil
		}
	})
}

func ingestInfo(hc *http.Client, base string) (server.IngestInfo, error) {
	var info server.IngestInfo
	resp, err := hc.Get(base + "/v1/ingest")
	if err != nil {
		return info, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("/v1/ingest: %s", resp.Status)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// verifyIngest checks the live corpus after the last acknowledgement: every
// op over HTTP must equal, byte for byte, a from-scratch K=1 compression of
// the base and appended documents in order.  The rebuild uses the corpus's
// dictionary: term vectors break frequency ties by word ID.
func (s *runStats) verifyIngest(hc *http.Client, base string, c *corpus, mix []ntadoc.BatchSpec) {
	fail := func(err error) {
		s.Attempted++
		s.fail(fmt.Errorf("verify against rebuild: %w", err))
	}
	a, err := ntadoc.CompressTokens(c.Files, c.Names, c.dictionary())
	if err != nil {
		fail(err)
		return
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{})
	if err != nil {
		fail(err)
		return
	}
	defer eng.Close()
	want, err := referenceResults(eng, mix)
	if err != nil {
		fail(err)
		return
	}
	var buf bytes.Buffer
	for i, spec := range mix {
		s.Attempted++
		if err := getBody(hc, base+"/v1/query?task="+taskCSV(spec), &buf); err != nil {
			s.fail(err)
			continue
		}
		got, err := envelopeResult(buf.Bytes())
		if err != nil {
			s.fail(err)
			continue
		}
		if !bytes.Equal(got, want[i]) {
			s.fail(fmt.Errorf("%s after the last append differs from a from-scratch rebuild (%d bytes, want %d)", spec.Signature(), len(got), len(want[i])))
		}
	}
}

// runEngineWorkload calls the library's engine task path in this process:
// one engine per persistence strategy, the six single tasks on each per
// iteration.
func runEngineWorkload(e *env, w *workloadDef, seconds float64, reps int) (*runStats, error) {
	st := newRunStats()
	window := time.Duration(seconds * float64(time.Second))
	c := makeCorpus(w.Dataset.Scaled(e.scale), e.seed)
	dct := c.dictionary()
	st.corpus, st.baseDocs = c, len(c.Files)

	var (
		setups []float64
		a      *ntadoc.Archive
		engs   [2]*ntadoc.Engine
	)
	closeEngines := func() {
		for _, eng := range engs {
			if eng != nil {
				eng.Close()
			}
		}
	}
	defer closeEngines()
	for r := 0; r < reps; r++ {
		closeEngines()
		t0 := time.Now()
		var err error
		if a, err = ntadoc.CompressTokens(c.Files, c.Names, dct); err != nil {
			return nil, err
		}
		for i, p := range []ntadoc.Persistence{ntadoc.PhaseLevel, ntadoc.OperationLevel} {
			if engs[i], err = ntadoc.NewEngine(a, ntadoc.Options{Persistence: p}); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		return nil, err
	}
	st.archive = buf.Bytes()
	st.Metrics["archive_bytes_ratio"] = metric{float64(buf.Len()) / float64(4*c.tokens(0, len(c.Files))), "ratio", 1}

	// Reference: the DRAM baseline engine.  Both strategies must equal it at
	// set-up (the modeled first pass) and again after the last iteration.
	dram, err := ntadoc.NewEngine(a, ntadoc.Options{Medium: ntadoc.MediumDRAM})
	if err != nil {
		return nil, err
	}
	ref := make([]*ntadoc.BatchResult, len(ntadoc.AllTasks))
	for i, t := range ntadoc.AllTasks {
		if ref[i], err = dram.RunBatch(t); err != nil {
			return nil, err
		}
	}
	check := func(what string, got []*ntadoc.BatchResult) {
		for i, t := range ntadoc.AllTasks {
			st.Attempted++
			if !reflect.DeepEqual(got[i], ref[i]) {
				st.fail(fmt.Errorf("%s: %s differs from the DRAM engine", what, t))
			}
		}
	}
	var probes [2]engineProbe
	for i, eng := range engs {
		if probes[i], err = probeEngine(eng); err != nil {
			return nil, err
		}
		check(fmt.Sprintf("set-up, strategy %d", i), probes[i].Results)
	}
	st.setModeled(probes[0], probes[1])

	// A query is one single-task RunSpec on one engine: the request types
	// are the six tasks on each of the two engines, twelve to a cycle.
	kinds := len(engs) * len(w.Mix)
	stream := makeStream(e.seed, kinds, 1<<16)
	cpu0, wall0 := cpuSeconds(), time.Now()
	last := [2][]*ntadoc.BatchResult{make([]*ntadoc.BatchResult, len(w.Mix)), make([]*ntadoc.BatchResult, len(w.Mix))}
	ls := closedLoop(1, window, 0, stream, kinds, func(_, kind int) error {
		eng, si := kind%len(engs), kind/len(engs)
		res, err := engs[eng].RunSpec(w.Mix[si])
		last[eng][si] = res
		return err
	})
	wall := time.Since(wall0).Seconds()
	st.absorb(ls.Attempted, ls.Failed, ls.FirstErr)
	st.setLatency(ls)
	for i, eng := range engs {
		for si, spec := range w.Mix {
			// A task the window never reached on this engine runs once now.
			if last[i][si] == nil {
				if last[i][si], err = eng.RunSpec(spec); err != nil {
					return nil, err
				}
			}
		}
		check(fmt.Sprintf("after the last iteration, strategy %d", i), last[i])
	}
	st.Layer["gen.late_p95_ms"] = metric{percentile(sortedCopy(ls.Gaps), 95), "ms", len(ls.Gaps)}
	// The engine runs inside the generator's process here, so its CPU share
	// is the workload's own and no validity limit applies.
	st.Layer["gen.cpu_share"] = metric{(cpuSeconds() - cpu0) / wall, "ratio", 1}
	st.setServerRatios(nil, nil)

	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	st.Metrics["peak_rss_mb"] = metric{rss, "MiB", 1}
	st.describe(w.Clients, seconds, c)
	return st, nil
}
