GO ?= go

# Seconds of coverage-guided fuzzing per target in fuzz-smoke.
FUZZTIME ?= 20s

.PHONY: all build cross vet staticcheck lint test race bench-smoke microbench bench-test crashcheck ingestcheck figcheck fuzz-smoke e2e loc check

all: check

build:
	$(GO) build ./...

# The device images are page mappings on unix (internal/nvm/image_unix.go)
# and heap slices elsewhere (image_other.go).  Neither the fallback nor the
# non-Linux mapping path runs here, so at least they keep compiling: the
# toolchain carries the standard library for both targets, no download.
cross:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/nvm/...

vet:
	$(GO) vet ./...

# Static analysis beyond vet.  CI installs staticcheck; locally the target
# skips with a notice when the binary is absent rather than failing the
# whole gate on a missing tool.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)'; \
	fi

# This pass is also where the allocation budgets run (the fused batch's
# ceiling in internal/core, the served mix's bytes per body byte in the root
# package): they skip themselves under the race detector.
test:
	$(GO) test ./...

# Race-detector pass over every package: concurrent query sessions, the
# parallel experiment harness, and the device simulator they drive.  The
# sessions' traversal workspaces are the only mutable state two queries on
# one engine could share, so the tests that run sessions side by side get ten
# rounds — and so does the one that closes the engine under the daemon's
# clients, where an unordered traversal would be reading an unmapped image.
# The same rounds cover the one thing sessions build on a shared engine: its
# sequence order, ranked by whichever first queries get there (seqOrder) —
# and the serving cut's lifetime rule: readers, an appender and a compaction
# loop at once, one cut held pinned and one session left idle across swaps
# (a tail discarded under a pin is a fault, not a wrong answer), and Close
# with a cut still pinned.  Every multi-shard scatter runs its shards on
# overlapping lanes, so the sharded sessions and gather tests get the same
# rounds.  An append that leaves a delta past the thresholds hands the
# compaction to the worker goroutine through a one-slot channel, so the
# worker's test gets them too: a wake-up lost or taken twice is a compaction
# that never runs or one that races the next append.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestTwoSessionsOneEngine|TestConcurrentSessions|TestResultsSurviveNextRun|TestCompactConcurrentQueries|TestCompactorWorker|TestCloseUnderPinnedCut|TestShardedSessions|TestGatherCriticalPath' ./internal/core
	$(GO) test -race -count=10 -run 'TestCloseOrdersSessionsBeforeEngineClose' ./internal/server

# One iteration of every benchmark, as a compile-and-run smoke test.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The serving path's microbenchmarks, six runs each with allocation counts,
# in the form benchstat reads: `make microbench > new.txt`, then
# `benchstat old.txt new.txt` against a run of the commit being compared.
# Egress (hit-path handler, result encoder, shard merge — per task, the
# `cold-miss` shape's two-unit ranked index and the same documents as two
# bases and two mapped deltas, the `live-ingest` shape, and its six-task
# gather whole and cut into two key-range parts; EXPERIMENTS.md "Egress
# path", "Array results", "Parallel gather", "Ranked lists merge as runs"),
# then the kernel traversal per direction — one warmed
# session serving each task and the fused batch on a top-down and a bottom-up
# shape, with alloc-B/body-B, the heap bytes allocated per body byte served —
# with the device round trips under it (batched body read, table re-attach;
# EXPERIMENTS.md "Session workspaces").  Last the persistent path: the engine
# task path under both persistence strategies on the `engine-persist` shape,
# with modeled time, flushes, fences and flushed granules per run beside the
# host time (EXPERIMENTS.md "Persistence"), and the engine build on that
# shape and on the `cold-miss` archive with the daemon's options, with its
# modeled initialization time (EXPERIMENTS.md "Root runs", "Set-up without
# hash maps").
# Last the set-up path, the host time behind setup_s before any engine
# exists: Sequitur inference on datasets A–D (Infer, with Mtok/s and
# allocations) and the append path on B's shape (DeltaAppend: batches of 8
# documents, a snapshot after each, a fresh builder every 64; EXPERIMENTS.md
# "Sequitur on an index arena"), then on the `cold-miss` shape the serial
# unification of the two shard grammars (UnifyShards) and ReadArchive of the
# resulting archive, with its MB/s and allocations — per section, not per
# word or rule (EXPERIMENTS.md "Fast set-up").
microbench:
	$(GO) test -run '^$$' -bench '^Benchmark(HandlerHit|EncodeResult|MergeShardResults)$$' \
		-benchmem -count 6 ./internal/server ./internal/analytics
	$(GO) test -run '^$$' -bench '^BenchmarkSessionMix$$' -benchtime 5x -benchmem -count 6 .
	$(GO) test -run '^$$' -bench '^Benchmark(BodyRead|CounterAttach)$$' \
		-benchmem -count 6 ./internal/nvm ./internal/pstruct
	$(GO) test -run '^$$' -bench '^Benchmark(PersistTask|NewEngine)$$' -benchtime 5x -benchmem -count 6 .
	$(GO) test -run '^$$' -bench '^Benchmark(Infer|DeltaAppend)$$' -benchtime 3x -benchmem -count 6 ./internal/sequitur
	$(GO) test -run '^$$' -bench '^BenchmarkUnifyShards$$' -benchtime 10x -benchmem -count 6 ./internal/sequitur
	$(GO) test -run '^$$' -bench '^BenchmarkReadArchive$$' -benchtime 10x -benchmem -count 6 .

# The repo benchmark's own tests (bench/ is a module of its own, so `make
# test` does not reach it): its percentile, open-loop timing and span
# arithmetic, and the check that BENCHMARK.json still equals the tables in
# bench/spec.go.  -short skips the ~10 s end-to-end smoke run.  CI runs this as
# its own step beside `make check`.
bench-test:
	cd bench && $(GO) test -short ./...

# ntalint: the repo's own analyzer suite (internal/lint) — persistcheck
# (dropped persistence errors), determcheck (wall-clock / unseeded rand /
# order-sensitive map iteration in modeled-result packages), publishcheck
# (body-before-header persistence ordering), guardcheck (`guarded by <mu>`
# annotations).  See DESIGN.md "Enforced invariants".
lint:
	$(GO) run ./cmd/ntalint ./...

# Exhaustive crash-point exploration on the recorded small corpus: every
# flush/drain event of WordCount under both persistence strategies, the
# none/all extremes plus 3 seeded torn-write subsets per point.  The corpus
# never fills the default operation log, so a second pass gives word count
# and sequence count a 128-byte one, which compacts 3 and 5 times inside the
# run: frames sealed, dropped and re-based around each compaction's table
# flush are then crash points too.  A third pass runs the per-file inverted
# index in both traversal directions; its counters are scratch in one reused
# pool region, never logged or flushed, so it has almost no schedule of its
# own and commits no result table: it is judged by no-panic, recover-or-reload
# and the exact re-run.  The fourth fuses word count with it, so a logged,
# compacted, committed global table sits under the reused per-file scratch,
# and the committed counts must still be exact.  The sampled versions of all
# four run inside `make test` via internal/crashcheck.
# Corpus and seeds are pinned here so runs reproduce.
CRASHCORPUS = -points 0 -seeds 3 -seed 42 -files 2 -tokens 120 -vocab 40 -corpus-seed 7
crashcheck:
	$(GO) run ./cmd/crashcheck -task wordcount -persistence both $(CRASHCORPUS)
	$(GO) run ./cmd/crashcheck -task wordcount -persistence both -oplogcap 128 $(CRASHCORPUS)
	$(GO) run ./cmd/crashcheck -task seqcount -persistence both -oplogcap 128 $(CRASHCORPUS)
	$(GO) run ./cmd/crashcheck -task invertedindex -strategy top-down -persistence both -oplogcap 128 $(CRASHCORPUS)
	$(GO) run ./cmd/crashcheck -task invertedindex -strategy bottom-up -persistence both -oplogcap 128 $(CRASHCORPUS)
	$(GO) run ./cmd/crashcheck -task wordcount+invertedindex -persistence both -oplogcap 128 $(CRASHCORPUS)

# Exhaustive online-ingestion crash exploration: every flush/drain event of
# the live append stream (with a mid-stream compaction) under both
# persistence strategies.  Recovery must land on a batch boundary, keep
# every acknowledged append, serve the exact prefix result, and stay
# appendable.  The sampled version runs inside `make test` via
# internal/crashcheck; corpus and seeds are pinned here so runs reproduce.
ingestcheck:
	$(GO) run ./cmd/crashcheck -ingest -task wordcount -persistence both \
		-points 0 -seeds 3 -seed 42 -files 4 -tokens 120 -vocab 40 -corpus-seed 7

# The printed figures hold modeled numbers only, so they are byte-identical
# from run to run and at any -parallel: every figure of the paper, regenerated
# and compared with the recorded output, byte for byte.  A change that moves a
# figure on purpose re-records bench_output_figures.txt with it.
figcheck:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/benchfig -fig all -parallel 2 > "$$out" && cmp "$$out" bench_output_figures.txt

# A short coverage-guided run of every fuzz target (archive parsing, the
# compress/decompress round trip, Sequitur against its pointer-linked
# reference builder, op-log crash recovery, the shard merge's
# posting-list runs against its reference merge, the result encoder
# against its reflection oracle, request decoding through the daemon's
# handlers).  Each target gets FUZZTIME of fuzzing on
# top of its seed corpus; new crashers land in testdata/fuzz/ for `make test`
# to replay forever after.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadArchive$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzInferMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/sequitur
	$(GO) test -run '^$$' -fuzz '^FuzzOpLogRecovery$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMergePostingRuns$$' -fuzztime $(FUZZTIME) ./internal/analytics
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeResult$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecoding$$' -fuzztime $(FUZZTIME) ./internal/server

# End-to-end daemon gate: builds the real ntadocd binary, serves the
# testdata corpus over HTTP, asserts every op bit-identical to direct
# library execution, and SIGTERMs it with a request in flight to check the
# graceful drain.  (These tests also run inside `make test`; the named
# target reruns them uncached so the gate always exercises the binary.)
e2e:
	$(GO) test -count=1 -run 'TestDaemon' ./cmd/ntadocd

# Non-test Go lines per top-level package (bench/ is its own module and is
# excluded), total last — the number the ROADMAP's "net-negative line counts"
# aim and simplicity issues' size criteria are stated in.
loc:
	@total=0; for d in . cmd/* examples/* internal/*; do \
		n=$$(find $$d $$([ $$d = . ] && echo -maxdepth 1) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%7d %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%7d total\n' $$total

check: build cross vet staticcheck lint test race bench-smoke crashcheck ingestcheck figcheck fuzz-smoke e2e
