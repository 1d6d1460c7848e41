// Command ntadocd is the long-lived query-serving daemon: it opens a
// compressed archive once, builds its N-TADOC engine once, and serves the
// six analytics tasks over JSON HTTP — amortizing the archive open and
// engine initialization across every query, coalescing identical in-flight
// batches, and caching hot results.
//
//	ntadocd -addr :8080 corpus.tdc
//	ntadocd -addr 127.0.0.1:0 -medium nvm -replicas 1 -sessions 16 corpus.tdc
//
// Endpoints:
//
//	GET/POST /v1/query     one batch (?task=wordcount,sort&k=5 or JSON body)
//	GET/POST /v1/batch     alias of /v1/query
//	POST     /v1/append    append a document batch durably (-ingest-cap > 0)
//	GET      /v1/ingest    live ingestion state (epoch, delta sizes, names)
//	GET      /healthz      liveness
//	GET      /metrics      Prometheus-style serving + device counters
//	GET      /debug/engine shard, replica, planner, pool, and cache state
//
// On SIGTERM/SIGINT the daemon stops accepting connections, drains in-flight
// requests, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ntadocd:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("ntadocd", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (host:0 picks a free port)")
	medium := fs.String("medium", "nvm", "nvm|ssd|hdd (query sessions need an N-TADOC medium)")
	pool := fs.String("pool", "", "file-backed NVM pool path (persists across runs)")
	replicas := fs.Int("replicas", 0, "follower devices per shard (enables failover recovery)")
	sessions := fs.Int("sessions", 0, "concurrent query sessions (0 = default)")
	queue := fs.Int("queue", 0, "admission queue depth before shedding with 429 (0 = default)")
	cache := fs.Int("cache", 0, "result cache entries (0 = default, negative disables)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = default)")
	ingestCap := fs.Int64("ingest-cap", 0, "durable append-log bytes per shard (0 disables /v1/append)")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one archive path")
	}

	var m ntadoc.Medium
	switch *medium {
	case "nvm":
		m = ntadoc.MediumNVM
	case "ssd":
		m = ntadoc.MediumSSD
	case "hdd":
		m = ntadoc.MediumHDD
	default:
		return fmt.Errorf("unknown medium %q", *medium)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	a, err := ntadoc.ReadArchive(f)
	f.Close()
	if err != nil {
		return err
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{
		Medium:         m,
		PoolPath:       *pool,
		Replicas:       *replicas,
		IngestCapacity: *ingestCap,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	if *ingestCap > 0 {
		// Background compaction, at the default policy, keeps query cost
		// over base+delta bounded while appends keep landing; swaps never
		// block queries.
		stopCompact := eng.AutoCompact(ntadoc.CompactionPolicy{})
		defer stopCompact()
	}

	cfg := server.Config{
		Engine:         eng,
		Sessions:       *sessions,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
	}
	// Test hook: the e2e harness holds requests in flight across a SIGTERM
	// to observe the graceful drain.
	if d := os.Getenv("NTADOCD_TEST_DELAY"); d != "" {
		delay, err := time.ParseDuration(d)
		if err != nil {
			return fmt.Errorf("NTADOCD_TEST_DELAY: %v", err)
		}
		cfg.HandlerDelay = delay
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	// Runs before the engine's Close above: no session is left reading a
	// device image when the engine unmaps it, even past a shutdown timeout.
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The listen address goes to stdout first thing so wrappers (the e2e
	// test, the loadgen harness) can pick up a :0-assigned port.
	fmt.Printf("ntadocd: listening on %s\n", ln.Addr())
	fmt.Printf("ntadocd: serving %s: %d documents, %d shards, generation %s\n",
		fs.Arg(0), len(eng.DocumentNames()), eng.NumShards(), srv.Generation())

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("ntadocd: shutting down, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("ntadocd: drained, bye")
	return nil
}
