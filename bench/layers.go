package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/sequitur"
	"github.com/text-analytics/ntadoc/internal/server"
)

// observations collects per-layer samples under their metric names, already
// in the metric's unit.
type observations struct {
	samples map[string][]float64
}

func newObservations() *observations {
	return &observations{samples: map[string][]float64{}}
}

func (o *observations) add(name string, v float64) {
	o.samples[name] = append(o.samples[name], v)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// mallocs is the process's cumulative heap allocation count.  The replay is
// sequential, so a delta across a call is that call's allocations (plus the
// little the runtime's own goroutines allocate meanwhile).
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// mergeEnv is the analytics.Env the replayed shard merges run under: the
// whole-corpus shape, no modeled-CPU meter.
type mergeEnv struct {
	d      *dict.Dictionary
	nfiles int
}

func (e mergeEnv) Dict() *dict.Dictionary   { return e.d }
func (e mergeEnv) NumFiles() int            { return e.nfiles }
func (mergeEnv) SeqOf(uint64) analytics.Seq { panic("bench: merge env resolves no sequence keys") }
func (mergeEnv) Charge(int64, int64)        {}

// discardWriter is the http.ResponseWriter the handler span writes into.
type discardWriter struct {
	hdr http.Header
	n   int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// opsOf maps a batch spec onto the kernel's registered ops; ntadoc.Task and
// analytics.Ops share the paper's task order.
func opsOf(spec ntadoc.BatchSpec) []analytics.Op {
	all := analytics.Ops()
	tasks := spec.Tasks()
	ops := make([]analytics.Op, len(tasks))
	for i, t := range tasks {
		ops[i] = all[int(t)]
	}
	return ops
}

// replayer replays requests one at a time in this process, calling each
// layer's public entry point with the inputs the layer above it was given.
type replayer struct {
	srv   *server.Server
	h     http.Handler
	ts    *httptest.Server
	hc    *http.Client
	sess  *ntadoc.QuerySession
	names []string

	// twin is a core engine over the same shards: the public engine hides
	// its core, and the shard sessions, device statistics and lane tails are
	// only reachable there.
	twin      *core.ShardedEngine
	tsess     *core.ShardedSession
	shardSess []*core.Session
	env       mergeEnv

	warmed map[string]bool
	key    string // the last cache key built, kept so building it is not optimized away
	buf    bytes.Buffer
	t0     time.Time
	rec    *recorder
	obs    *observations
	// Totals behind server.encode_mb_s.
	encodedBytes, encodeSeconds float64
}

func newReplayer(eng *ntadoc.Engine, c *corpus, base, shards int) (*replayer, *cfg.Grammar, error) {
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, nil, err
	}
	sess, err := eng.NewSession()
	if err != nil {
		return nil, nil, err
	}
	d := dict.New()
	for _, w := range c.Words {
		d.Intern(w)
	}
	sb, err := sequitur.InferShardsShared(c.Files[:base], uint32(len(c.Words)), shards)
	if err != nil {
		return nil, nil, err
	}
	twin, err := core.NewSharded(sb.Shards, d, core.Options{Sequences: true, BuildTag: sb.Set.Checksum()})
	if err != nil {
		return nil, nil, err
	}
	r := &replayer{
		srv: srv, h: srv.Handler(), hc: newClient(1), sess: sess, names: eng.DocumentNames(),
		twin: twin, tsess: twin.NewSession(), env: mergeEnv{d, base},
		warmed: map[string]bool{}, t0: time.Now(), obs: newObservations(),
	}
	for i := 0; i < twin.NumShards(); i++ {
		r.shardSess = append(r.shardSess, twin.Shard(i).NewSession())
	}
	r.ts = httptest.NewServer(r.h)
	return r, sb.Shards[0], nil
}

func (r *replayer) close() {
	r.ts.Close()
	r.twin.Close()
}

// timed is one measured call: how long it took and, on a traced request, how
// many heap allocations it made.
type timed struct {
	d      time.Duration
	allocs float64
}

// timeCall measures f.  The allocation count is read outside the timed
// interval, so reading it does not lengthen the span.
func timeCall(traced bool, f func() error) (timed, error) {
	var before float64
	if traced {
		before = mallocs()
	}
	start := time.Now()
	err := f()
	m := timed{d: time.Since(start)}
	if traced {
		m.allocs = mallocs() - before
	}
	return m, err
}

// measured is what one replayed request yielded, layer by layer.
type measured struct {
	id    int
	label string // per-layer metric suffix: the task, or "fused"
	miss  bool
	start int64 // ns since the replay began

	parse, key, handler timed
	loopback            time.Duration
	responseBytes       int

	// Miss path only.
	session, core, encode timed
	shards, merges        []timed // one per shard lane; one per op
	encodeBytes           int
	granules, modeledNs   int64
}

// request replays one request.  miss selects the path: a miss runs a session,
// converts and encodes before the handler writes; a hit only parses, builds
// the key and lets the handler answer from its cache.  With traced false the
// same calls are made but nothing is counted or recorded — the no-op side of
// the tracing-overhead measurement.
func (r *replayer) request(id int, spec ntadoc.BatchSpec, miss, traced bool) error {
	ctx := context.Background()
	m := measured{id: id, label: taskLabel(spec), miss: miss, start: time.Since(r.t0).Nanoseconds()}
	csv := taskCSV(spec)
	var err error

	var sp ntadoc.BatchSpec
	if m.parse, err = timeCall(traced, func() (err error) {
		sp, err = server.Request{Task: csv}.Spec()
		return err
	}); err != nil {
		return err
	}
	m.key, _ = timeCall(traced, func() error {
		r.key = r.srv.Generation() + "|" + sp.Signature()
		return nil
	})

	if miss {
		ops := opsOf(sp)
		var res *ntadoc.BatchResult
		if m.session, err = timeCall(traced, func() (err error) {
			res, err = r.sess.RunSpec(ctx, sp)
			return err
		}); err != nil {
			return err
		}

		// The same batch on the twin's kernel, shaped like the public engine:
		// scatter-gather over the shards, or the lone shard's own session.
		runOps := r.tsess.RunOpsContext
		if len(r.shardSess) == 1 {
			runOps = r.shardSess[0].RunOpsContext
		}
		devBefore := r.twin.DeviceStats()
		if m.core, err = timeCall(traced, func() error {
			_, err := runOps(ctx, ops)
			return err
		}); err != nil {
			return err
		}
		dev := r.twin.DeviceStats().Sub(devBefore)
		m.granules, m.modeledNs = dev.GranuleReads, dev.ModeledNanos

		// One lane at a time, then the merge of their results, op by op.
		shardRes := make([][]any, len(r.shardSess))
		for i, s := range r.shardSess {
			lane, err := timeCall(false, func() (err error) {
				shardRes[i], err = s.RunOpsContext(ctx, ops)
				return err
			})
			if err != nil {
				return err
			}
			m.shards = append(m.shards, lane)
		}
		for j, op := range ops {
			per := make([]any, len(shardRes))
			for i := range shardRes {
				per[i] = shardRes[i][j]
			}
			merge, err := timeCall(traced, func() error {
				_, err := analytics.MergeShardResults(op, r.env, per, r.twin.DocBases())
				return err
			})
			if err != nil {
				return err
			}
			m.merges = append(m.merges, merge)
		}

		if m.encode, err = timeCall(traced, func() error {
			body, err := server.EncodeResult(res, r.names)
			m.encodeBytes = len(body)
			return err
		}); err != nil {
			return err
		}
	}

	// The handler span is the hit path on a warmed key: what remains of the
	// handler once the session run and the encode are taken out.
	url := "/v1/query?task=" + csv
	if sig := spec.Signature(); !r.warmed[sig] {
		r.h.ServeHTTP(&discardWriter{hdr: http.Header{}}, httptest.NewRequest(http.MethodGet, url, nil))
		r.warmed[sig] = true
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := &discardWriter{hdr: http.Header{}}
	m.handler, _ = timeCall(traced, func() error {
		r.h.ServeHTTP(w, req)
		return nil
	})
	m.responseBytes = w.n

	// Loopback: the same warmed request over a real loopback connection,
	// minus the handler's own time.
	client, err := timeCall(false, func() error { return getBody(r.hc, r.ts.URL+url, &r.buf) })
	if err != nil {
		return err
	}
	m.loopback = client.d - m.handler.d

	if traced {
		r.observe(&m)
		r.record(&m)
	}
	return nil
}

// observe files a request's measurements under the per-layer metric names.
func (r *replayer) observe(m *measured) {
	o := r.obs
	o.add("server.parse_us", us(m.parse.d))
	o.add("root.key_us", us(m.key.d))
	o.add("server.handler_hit_us", us(m.handler.d))
	o.add("server.handler_hit_allocs", m.handler.allocs)
	o.add("server.response_bytes_p50", float64(m.responseBytes))
	o.add("http.loopback_us", us(m.loopback))
	if !m.miss {
		return
	}
	o.add("root.convert_us", us(m.session.d-m.core.d))
	o.add("root.convert_allocs", m.session.allocs-m.core.allocs)
	o.add("core.run_us."+m.label, us(m.core.d))
	o.add("core.modeled_us."+m.label, float64(m.modeledNs)/1e3)
	o.add("core.granule_reads."+m.label, float64(m.granules))
	if m.label == "fused" {
		o.add("core.run_allocs.fused", m.core.allocs)
	} else {
		o.add("analytics.merge_us."+m.label, us(m.merges[0].d))
	}
	for _, merge := range m.merges {
		o.add("analytics.merge_allocs", merge.allocs)
	}
	o.add("server.encode_us", us(m.encode.d))
	o.add("server.encode_allocs", m.encode.allocs)
	r.encodedBytes += float64(m.encodeBytes)
	r.encodeSeconds += m.encode.d.Seconds()
}

// record lays a request's spans out: sequential children one after another
// inside the request, shard lanes side by side inside core.run_ops.
func (r *replayer) record(m *measured) {
	miss := 0.0
	if m.miss {
		miss = 1
	}
	root := r.rec.add(m.id, "request", -1, m.start, 0, map[string]float64{"miss": miss})
	at := m.start
	next := func(name string, d time.Duration, counts map[string]float64) int {
		idx := r.rec.add(m.id, name, root, at, d.Nanoseconds(), counts)
		at += d.Nanoseconds()
		return idx
	}
	next("server.parse", m.parse.d, nil)
	next("root.key", m.key.d, nil)
	if m.miss {
		sessAt := at
		sessIdx := next("root.session_run", m.session.d, map[string]float64{"allocs": m.session.allocs})
		coreIdx := r.rec.add(m.id, "core.run_ops", sessIdx, sessAt, m.core.d.Nanoseconds(), map[string]float64{
			"allocs": m.core.allocs, "granule_reads": float64(m.granules), "modeled_ns": float64(m.modeledNs),
		})
		// An unsharded engine has no lanes to run side by side and nothing
		// to merge: its core.run_ops span has no children.
		if len(m.shards) > 1 {
			var lanes time.Duration
			for i, lane := range m.shards {
				r.rec.add(m.id, fmt.Sprintf("core.shard_run.%d", i), coreIdx, sessAt, lane.d.Nanoseconds(), nil)
				lanes = max(lanes, lane.d)
			}
			var merge timed
			for _, mg := range m.merges {
				merge.d += mg.d
				merge.allocs += mg.allocs
			}
			r.rec.add(m.id, "analytics.merge", coreIdx, sessAt+lanes.Nanoseconds(), merge.d.Nanoseconds(), map[string]float64{"allocs": merge.allocs})
		}
		next("server.encode", m.encode.d, map[string]float64{"allocs": m.encode.allocs, "bytes": float64(m.encodeBytes)})
	}
	next("server.handler", m.handler.d, map[string]float64{"allocs": m.handler.allocs, "bytes": float64(m.responseBytes)})
	next("http.loopback", m.loopback, nil)
	r.rec.spans[root].EndNs = at
}

// replay runs the traced replay of w: one cycle of the default mix on the
// miss path (every task and the fused batch, in seeded order), then w's own
// stream in alternating untraced and traced blocks until the budget is spent.
// It returns how many requests it replayed.
func (r *replayer) replay(w *workloadDef, seed int64, budget time.Duration) (int, error) {
	id := 0
	probe := defaultMix()
	for _, si := range makeStream(seed, len(probe), len(probe)) {
		if err := r.request(id, probe[si], true, true); err != nil {
			return id, fmt.Errorf("replay %s: %w", probe[si].Signature(), err)
		}
		id++
	}
	const maxTraced = 2000 // bounds the trace file
	stream := makeStream(seed, len(w.Mix), 1<<16)
	var tracedTime, untracedTime time.Duration
	start := time.Now()
	for pos, tracedReqs := 0, 0; (pos == 0 || time.Since(start) < budget) && tracedReqs < maxTraced; {
		for _, traced := range []bool{false, true} {
			t := time.Now()
			for k := 0; k < len(w.Mix); k++ {
				spec := w.Mix[stream[(pos+k)%len(stream)]]
				if err := r.request(id, spec, !w.Hits, traced); err != nil {
					return id, fmt.Errorf("replay %s: %w", spec.Signature(), err)
				}
				id++
			}
			if traced {
				tracedTime += time.Since(t)
				tracedReqs += len(w.Mix)
			} else {
				untracedTime += time.Since(t)
			}
		}
		// Both blocks of a pair replay the same requests.
		pos += len(w.Mix)
	}
	r.obs.add("trace.overhead_pct", (tracedTime.Seconds()/untracedTime.Seconds()-1)*100)

	// Lane imbalance of the fused batch on the engine task path, which is
	// where the planner packs lanes: slowest lane over the mean, minus one.
	if _, err := r.twin.RunOps(opsOf(probe[len(probe)-1])); err != nil {
		return id, err
	}
	tails := r.twin.LastLaneTails()
	var sum, worst float64
	for _, t := range tails {
		sum += float64(t)
		worst = max(worst, float64(t))
	}
	imbalance := 0.0
	if sum > 0 {
		imbalance = worst/(sum/float64(len(tails))) - 1
	}
	r.obs.add("core.lane_imbalance.fused", imbalance)
	return id, nil
}

// tracePass produces every per-layer metric for w: a loaded run for what
// only the running program can tell (the daemon's /metrics, the generator's
// own checks), then timed calls into each layer on w's inputs.
func tracePass(e *env, w *workloadDef, seconds float64) (map[string]metric, *runStats, error) {
	st, err := runWorkload(e, w, seconds/2, 1)
	if err != nil {
		return nil, nil, err
	}
	c, base := st.corpus, st.baseDocs
	obs := newObservations()
	baseTokens := float64(c.tokens(0, base))

	// Set-up layers: inference, archive write and read, engine build.
	t := time.Now()
	a, err := ntadoc.CompressTokensSharded(c.Files[:base], c.Names[:base], c.dictionary(), w.Shards)
	if err != nil {
		return nil, nil, err
	}
	obs.add("sequitur.infer_mtok_s", baseTokens/1e6/time.Since(t).Seconds())
	stats := a.Stats()
	obs.add("sequitur.symbols_per_token", float64(stats.GrammarSymbols)/float64(stats.Tokens))
	var buf bytes.Buffer
	t = time.Now()
	if _, err := a.WriteTo(&buf); err != nil {
		return nil, nil, err
	}
	obs.add("cfg.write_mb_s", float64(buf.Len())/1e6/time.Since(t).Seconds())
	obs.add("cfg.archive_bytes", float64(buf.Len()))
	t = time.Now()
	a2, err := ntadoc.ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	obs.add("cfg.read_mb_s", float64(buf.Len())/1e6/time.Since(t).Seconds())
	t = time.Now()
	eng, err := ntadoc.NewEngine(a2, ntadoc.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	obs.add("core.engine_build_ms", ms(time.Since(t)))

	r, shard0, err := newReplayer(eng, c, base, w.Shards)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	r.rec, r.obs = &recorder{}, obs
	replayed, err := r.replay(w, e.seed, time.Duration(seconds/4*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	st.Attempted += replayed

	if err := ingestProbe(c, base, buf.Bytes(), shard0, obs); err != nil {
		return nil, nil, err
	}
	if err := storageProbes(e.seed, obs); err != nil {
		return nil, nil, err
	}
	if err := writeTrace(filepath.Join(e.root, "bench", "out", "trace-"+w.Name+".json"), w.Name, e.seed, r.rec); err != nil {
		return nil, nil, err
	}

	out := map[string]metric{}
	for _, def := range perLayer {
		if m, ok := st.Layer[def.Name]; ok {
			out[def.Name] = m
			continue
		}
		samples := obs.samples[def.Name]
		switch {
		case def.Name == "server.encode_mb_s":
			out[def.Name] = metric{r.encodedBytes / 1e6 / r.encodeSeconds, def.Unit, len(obs.samples["server.encode_us"])}
		case len(samples) == 0:
			return nil, nil, fmt.Errorf("bench: traced pass of %s took no sample of %s", w.Name, def.Name)
		case def.Exact:
			// The first sample: the replay's length depends on the clock, its
			// first cycle does not.
			out[def.Name] = metric{samples[0], def.Unit, 1}
		default:
			out[def.Name] = metric{median(samples), def.Unit, len(samples)}
		}
	}
	return out, st, nil
}
