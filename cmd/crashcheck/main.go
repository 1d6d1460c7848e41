// Command crashcheck runs the systematic crash-point exploration of
// internal/crashcheck and prints a per-crash-point verdict table: for every
// persistence event of the workload (or a seeded sample), the recovery
// outcome under each injected torn-write subset.  Exit status 1 when any
// invariant violation is found, 2 on a usage or setup error.
//
// Usage — one driver, crashcheck.Run; -shards sets its K, and -ingest its
// scenario (Crash otherwise):
//
//	crashcheck -task wordcount -persistence both -points 0 -seeds 3 -seed 42
//	crashcheck -task seqcount -oplogcap 192 -points 0
//	crashcheck -task invertedindex -strategy bottom-up -oplogcap 512 -points 0
//	crashcheck -task wordcount+invertedindex -oplogcap 128 -points 0
//	crashcheck -task wordcount -shards 3 -points 8
//	crashcheck -ingest -points 0                 # one shard only
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/crashcheck"
)

func main() {
	var (
		task        = flag.String("task", "wordcount", "workload: wordcount, seqcount, or (unsharded runs only) the per-file invertedindex or the fused wordcount+invertedindex")
		persistence = flag.String("persistence", "both", "strategy: phase, op, or both")
		strategy    = flag.String("strategy", "auto", "per-file traversal direction: auto, top-down, or bottom-up")
		oplogcap    = flag.Int64("oplogcap", 0, "operation-log bytes (0 = the engine's default; a few hundred make the log compact inside the run)")
		points      = flag.Int("points", 0, "crash points to explore (0 = exhaustive)")
		seeds       = flag.Int("seeds", 3, "seeded torn-write subsets per crash point (plus the none/all extremes)")
		seed        = flag.Int64("seed", 42, "base seed for sampling and subset selection")
		files       = flag.Int("files", 2, "corpus files")
		tokens      = flag.Int("tokens", 120, "tokens per file")
		vocab       = flag.Int("vocab", 40, "corpus vocabulary size")
		corpusSeed  = flag.Int64("corpus-seed", 7, "corpus generator seed")
		shards      = flag.Int("shards", 1, "explore a k-way sharded engine instead (k >= 2)")
		ingest      = flag.Bool("ingest", false, "explore online ingestion: crash during live appends and compaction")
		verbose     = flag.Bool("v", false, "print per-point progress while exploring")
	)
	flag.Parse()

	scenario := crashcheck.Crash
	switch {
	case *ingest && *shards > 1:
		fmt.Fprintln(os.Stderr, "crashcheck: -ingest explores one shard; drop -shards")
		os.Exit(2)
	case *ingest:
		scenario = crashcheck.Ingest
	}

	var modes []core.Persistence
	switch *persistence {
	case "phase":
		modes = []core.Persistence{core.PhaseLevel}
	case "op":
		modes = []core.Persistence{core.OpLevel}
	case "both":
		modes = []core.Persistence{core.PhaseLevel, core.OpLevel}
	default:
		fmt.Fprintf(os.Stderr, "crashcheck: unknown -persistence %q (want phase, op, or both)\n", *persistence)
		os.Exit(2)
	}

	var direction core.Strategy
	switch *strategy {
	case core.Auto.String():
	case core.TopDown.String():
		direction = core.TopDown
	case core.BottomUp.String():
		direction = core.BottomUp
	default:
		fmt.Fprintf(os.Stderr, "crashcheck: unknown -strategy %q (want auto, top-down, or bottom-up)\n", *strategy)
		os.Exit(2)
	}
	if strings.Contains(*task, "invertedindex") && (*ingest || *shards > 1) {
		fmt.Fprintf(os.Stderr, "crashcheck: -task %s explores the unsharded engine only\n", *task)
		os.Exit(2)
	}

	violations := 0
	for _, mode := range modes {
		cfg := crashcheck.Config{
			Scenario:    scenario,
			Shards:      *shards,
			Task:        *task,
			Persistence: mode,
			Strategy:    direction,
			OpLogCap:    *oplogcap,
			Points:      *points,
			Subsets:     *seeds,
			Seed:        *seed,
			Files:       *files,
			TokensPer:   *tokens,
			Vocab:       *vocab,
			CorpusSeed:  *corpusSeed,
		}
		if *verbose {
			cfg.Log = os.Stderr
		}
		rep, err := crashcheck.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: %v\n", err)
			os.Exit(2)
		}
		printReport(mode, *task, rep, *shards > 1)
		violations += rep.Violations
	}
	if violations > 0 {
		fmt.Printf("\nFAIL: %d invariant violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("\nOK: zero invariant violations")
}

func printReport(mode core.Persistence, task string, rep *crashcheck.Report, sharded bool) {
	fmt.Printf("\n%s / %s: %d persistence events, %d crash points explored\n",
		task, mode, rep.TotalEvents, len(rep.Points))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "event\toutcomes\tverdict")
	for _, pt := range rep.Points {
		states := make([]string, len(pt.Outcomes))
		for i, o := range pt.Outcomes {
			states[i] = o.State
		}
		verdict := "ok"
		if n := pt.Violations(); n > 0 {
			verdict = fmt.Sprintf("VIOLATIONS=%d", n)
		}
		label := fmt.Sprintf("%d", pt.Event)
		if sharded {
			label = fmt.Sprintf("s%d/%d", pt.Shard, pt.Event)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", label, strings.Join(states, ","), verdict)
		for _, o := range pt.Outcomes {
			for _, v := range o.Violations {
				fmt.Fprintf(w, "\t  %s: %s\t\n", o.Subset, v)
			}
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "crashcheck: %v\n", err)
	}
}
