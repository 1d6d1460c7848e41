package main

import (
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// Load sizing.  These are constants, never derived from the machine at run
// time: a run on a bigger box issues the same load and the numbers stay
// comparable.  BENCHMARK.json and README.md record the same values.
const (
	closedClients  = 2        // closed-loop clients of hot-hit and cold-miss
	readerClients  = 1        // closed-loop reader of live-ingest
	appendRate     = 5.0      // open-loop append batches per second
	appendBatch    = 8        // documents per append batch
	ingestBaseDocs = 800      // live-ingest: documents compressed before the daemon starts
	ingestLogCap   = 16 << 20 // live-ingest: -ingest-cap, bytes per shard
	daemonShards   = 2        // K of the three daemon workloads
	coldMissFiles  = 32       // cold-miss: dataset D cut to this many documents (see README, sizing)
	setupReps      = 3        // set-up repetitions behind setup_s
	defaultSeconds = 40       // measured window without -seconds
	quickScale     = 0.05     // -quick corpus scale
	quickSeconds   = 2        // -quick measured window
	readerThinkMs  = 50       // live-ingest: the reader sends at most one request per this many ms
	retryBackoffMs = 20       // wait before retrying a 503 append
	lateLimitMs    = 20.0     // gen.late_p95_ms above this flags the run invalid
	cpuShareLimit  = 1.0      // gen.cpu_share above this flags a daemon run invalid
	probeOps       = 1 << 16  // operations per storage micro-probe
	probeTxs       = 2048     // transactions in the pmem probe
)

// Clock tells which clock a metric reads.
type Clock string

const (
	clockHost    Clock = "host"    // wall-clock of this box
	clockModeled Clock = "modeled" // the simulator's cost model
	clockCount   Clock = "count"   // a count or ratio, no clock
)

// metricDef names one metric the benchmark prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Clock  Clock
	// Exact metrics are deterministic for a seed: -repeat requires them to
	// be identical across repetitions.
	Exact bool
}

// endToEnd are the metrics BENCHMARK.json bounds, reported by every workload
// from the untraced run.  A bound is the share of the parent's median by which
// a change may worsen the metric; it also has to hold the metric's spread over
// ten seeds on this box (README.md, "Noise"), which for host time under a
// saturating load is 8-18%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, clockHost, false},
	{"throughput_rps", "req/s", "higher", 0.25, clockHost, false},
	{"query_p50_ms", "ms", "lower", 0.25, clockHost, false},
	{"query_p95_ms", "ms", "lower", 0.25, clockHost, false},
	{"modeled_phase_ms", "ms", "lower", 0.12, clockModeled, true},
	{"modeled_oplevel_ms", "ms", "lower", 0.12, clockModeled, true},
	{"peak_rss_mb", "MiB", "lower", 0.20, clockHost, false},
	{"archive_bytes_ratio", "ratio", "lower", 0.10, clockCount, true},
}

// ingestOnly are live-ingest's own end-to-end metrics.  BENCHMARK.json
// cannot carry them (its contract wants every end-to-end metric from every
// workload), so they appear in this program's report only; see README.md.
var ingestOnly = []metricDef{
	{"append_p50_ms", "ms", "lower", 0.25, clockHost, false},
	{"append_p95_ms", "ms", "lower", 0.25, clockHost, false},
}

// taskNames are the per-task suffixes of the per-layer metrics.
var taskNames = []string{"wordcount", "sort", "termvector", "invertedindex", "seqcount", "rankedindex", "fused"}

// perLayer lists the per-layer metrics of the traced pass, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	h := func(name, unit, better string) metricDef { return metricDef{name, unit, better, 0, clockHost, false} }
	c := func(name, unit, better string) metricDef { return metricDef{name, unit, better, 0, clockCount, false} }
	x := func(name, unit, better string, clk Clock) metricDef {
		return metricDef{name, unit, better, 0, clk, true}
	}
	out := []metricDef{
		c("server.cache_hit_ratio", "ratio", "higher"),
		c("server.coalesced_ratio", "ratio", "higher"),
		c("server.shed_ratio", "ratio", "lower"),
		c("server.cache_entries_end", "count", "lower"),
		c("server.cache_bytes_end", "bytes", "lower"),

		h("server.parse_us", "us", "lower"),
		h("server.handler_hit_us", "us", "lower"),
		c("server.handler_hit_allocs", "count", "lower"),
		c("server.response_bytes_p50", "bytes", "lower"),
		h("root.key_us", "us", "lower"),
		h("http.loopback_us", "us", "lower"),

		h("server.encode_us", "us", "lower"),
		h("server.encode_mb_s", "MB/s", "higher"),
		c("server.encode_allocs", "count", "lower"),
		h("root.convert_us", "us", "lower"),
		c("root.convert_allocs", "count", "lower"),
	}
	for _, t := range taskNames {
		out = append(out, h("core.run_us."+t, "us", "lower"))
	}
	for _, t := range taskNames {
		out = append(out, x("core.modeled_us."+t, "us", "lower", clockModeled))
	}
	for _, t := range taskNames {
		out = append(out, x("core.granule_reads."+t, "count", "lower", clockCount))
	}
	out = append(out,
		c("core.run_allocs.fused", "count", "lower"),
		x("core.lane_imbalance.fused", "ratio", "lower", clockModeled),
	)
	for _, t := range taskNames[:6] {
		out = append(out, h("analytics.merge_us."+t, "us", "lower"))
	}
	out = append(out,
		c("analytics.merge_allocs", "count", "lower"),

		h("core.append_us", "us", "lower"),
		x("core.append_flushes", "count", "lower", clockCount),
		x("core.append_log_amp", "ratio", "lower", clockCount),
		c("core.append_retry_ratio", "ratio", "lower"),
		h("core.compact_ms", "ms", "lower"),
		c("core.compactions", "count", "higher"),
		h("sequitur.delta_append_mtok_s", "Mtok/s", "higher"),
		h("dict.tokenize_mtok_s", "Mtok/s", "higher"),
		h("cfg.merge_delta_ms", "ms", "lower"),

		h("nvm.read_seq_ns", "ns", "lower"),
		h("nvm.read_rand_ns", "ns", "lower"),
		h("nvm.read_batch_ns_per_word", "ns", "lower"),
		x("nvm.cache_hit_ratio_rand", "ratio", "higher", clockCount),
		x("nvm.modeled_read_rand_ns", "ns", "lower", clockModeled),
		h("pstruct.ht_get_ns", "ns", "lower"),
		x("pstruct.ht_granule_reads_per_get", "count", "lower", clockCount),

		h("nvm.write_seq_ns", "ns", "lower"),
		h("nvm.write_rand_ns", "ns", "lower"),
		h("nvm.flush_ns", "ns", "lower"),
		x("nvm.modeled_write_rand_ns", "ns", "lower", clockModeled),
		x("nvm.flushes_per_task.phase", "count", "lower", clockCount),
		x("nvm.flushes_per_task.oplevel", "count", "lower", clockCount),
		x("nvm.bytes_written_per_task.oplevel", "bytes", "lower", clockCount),
		h("pmem.tx_commit_ns", "ns", "lower"),
		x("pmem.tx_flushes", "count", "lower", clockCount),
		x("pmem.tx_write_amp", "ratio", "lower", clockCount),
		h("pmem.alloc_ns", "ns", "lower"),
		h("pstruct.ht_add_ns", "ns", "lower"),
		h("pstruct.vec_append_ns", "ns", "lower"),

		h("sequitur.infer_mtok_s", "Mtok/s", "higher"),
		x("sequitur.symbols_per_token", "ratio", "lower", clockCount),
		h("cfg.write_mb_s", "MB/s", "higher"),
		h("cfg.read_mb_s", "MB/s", "higher"),
		x("cfg.archive_bytes", "bytes", "lower", clockCount),
		h("core.engine_build_ms", "ms", "lower"),
		x("core.init_modeled_ms", "ms", "lower", clockModeled),

		h("gen.late_p95_ms", "ms", "lower"),
		h("gen.cpu_share", "ratio", "lower"),
		c("gen.samples", "count", "higher"),
		h("trace.overhead_pct", "%", "lower"),
	)
	return out
}

// workloadDef describes one workload: its input, the daemon it needs (none
// for the in-process one), and the request mix both passes draw from.
type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Dataset datagen.Spec
	Shards  int
	// DaemonFlags are passed to ntadocd; nil means no daemon: the workload
	// calls the library's engine task path in this process.
	DaemonFlags []string
	Mix         []ntadoc.BatchSpec
	Clients     int
	// Think paces each client: it sends no sooner than this after its
	// previous send (0: as soon as the previous request completed).
	Think time.Duration
	// Hits: after the first cycle every request is a cache hit.
	Hits bool
	// Ingest: an open-loop appender runs beside the readers.
	Ingest bool
}

func singleTaskMix() []ntadoc.BatchSpec {
	mix := make([]ntadoc.BatchSpec, len(ntadoc.AllTasks))
	for i, t := range ntadoc.AllTasks {
		mix[i] = ntadoc.NewBatchSpec([]ntadoc.Task{t}, 0)
	}
	return mix
}

// defaultMix is the six single tasks plus the fused six-task batch, the mix
// BENCH_loadgen.json was measured with.
func defaultMix() []ntadoc.BatchSpec {
	return append(singleTaskMix(), ntadoc.NewBatchSpec(ntadoc.AllTasks, 0))
}

func coldMissDataset() datagen.Spec {
	d := datagen.DatasetD
	d.Files = coldMissFiles
	return d
}

func ingestDataset() datagen.Spec {
	d := datagen.DatasetB
	d.Files = ingestBaseDocs // appended documents are added per run, from the window length
	return d
}

var workloads = []workloadDef{
	{
		Name:        "hot-hit",
		Why:         "dataset A, K=2, cache 512, default mix, 2 closed-loop clients: at least 99% cache hits, so time is server edge work (parse, key, cache get, envelope) plus loopback",
		Dataset:     datagen.DatasetA,
		Shards:      daemonShards,
		DaemonFlags: []string{},
		Mix:         defaultMix(),
		Clients:     closedClients,
		Hits:        true,
	},
	{
		Name:        "cold-miss",
		Why:         "dataset D (32 docs), K=2, -cache -1, default mix, 2 closed-loop clients: every request traverses, merges, converts and encodes; the cache and hit path are bypassed",
		Dataset:     coldMissDataset(),
		Shards:      daemonShards,
		DaemonFlags: []string{"-cache", "-1"},
		Mix:         defaultMix(),
		Clients:     closedClients,
	},
	{
		Name:        "live-ingest",
		Why:         "dataset B, 800 base docs, K=2, -ingest-cap 16MiB: open-loop appends at 5 batches/s x 8 docs beside 1 closed-loop reader (at most 20 req/s) of six single tasks; every query misses, merging base+delta",
		Dataset:     ingestDataset(),
		Shards:      daemonShards,
		DaemonFlags: []string{"-ingest-cap", "16777216"},
		Mix:         singleTaskMix(),
		Clients:     readerClients,
		Think:       readerThinkMs * time.Millisecond,
		Ingest:      true,
	},
	{
		Name:    "engine-persist",
		Why:     "dataset C, unsharded, in-process engine task path under phase- and operation-level persistence, 1 caller: the only workload that writes the pool, flushes and redo-logs",
		Dataset: datagen.DatasetC,
		Shards:  1,
		Mix:     singleTaskMix(),
		Clients: 1,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
