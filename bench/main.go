// Command bench is the repository's benchmark: four workloads (three against
// the real ntadocd binary over loopback HTTP, one on the library's engine
// task path), every output verified, every metric printed by name with its
// unit and clock.  See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-repeat N] [-quick] [-json PATH]
//
// With -trace 0 (the default) each workload runs untraced and reports the
// end-to-end metrics.  With -trace 1 each workload runs the traced pass
// instead and reports the per-layer metrics, writing its spans to
// bench/out/trace-<workload>.json.  When exactly one workload runs once, the
// last line of standard output is the one JSON object BENCHMARK.json's
// contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	quick    bool
	jsonPath string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload: hot-hit, cold-miss, live-ingest or engine-persist (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: corpora, request order and probe offsets derive from it")
	fs.Float64Var(&o.seconds, "seconds", 0, fmt.Sprintf("measured window per workload (default %d, %d under -quick)", defaultSeconds, quickSeconds))
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run the selection N times and print the noise report")
	fs.BoolVar(&o.quick, "quick", false, "smoke mode: corpora at 5% scale, short windows; numbers are not comparable")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report (environment, sizing, every metric with its sample count) here")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.repeat < 1 {
		return o, fmt.Errorf("-repeat must be at least 1")
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds == 0 {
		o.seconds = defaultSeconds
		if o.quick {
			o.seconds = quickSeconds
		}
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	return o, nil
}

// outcome is one workload's result in one mode.
type outcome struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Invalid   []string          `json:"invalid,omitempty"`
	Error     string            `json:"first_error,omitempty"`
	Info      map[string]any    `json:"info,omitempty"`
}

// runOne runs one workload in the selected mode.
func runOne(e *env, w *workloadDef, o options) (*outcome, error) {
	out := &outcome{Workload: w.Name, Traced: o.trace}
	var st *runStats
	var err error
	if o.trace {
		out.Metrics, st, err = tracePass(e, w, o.seconds)
	} else {
		reps := setupReps
		if o.quick {
			reps = 1
		}
		st, err = runWorkload(e, w, o.seconds, reps)
		if err == nil {
			out.Metrics = st.Metrics
			if n := st.Metrics["query_p95_ms"].Samples; !supportsPercentile(n, 95) {
				st.Invalid = append(st.Invalid, fmt.Sprintf("query_p95_ms has %d samples beyond it, fewer than %d (%d samples)", samplesBeyond(n, 95), minBeyond, n))
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	out.Attempted, out.Failed, out.Correct = st.Attempted, st.Failed, st.Failed == 0
	out.Invalid, out.Info = st.Invalid, st.Info
	if st.FirstErr != nil {
		out.Error = st.FirstErr.Error()
	}
	return out, nil
}

// contractLine is the last line of standard output for a single run.
func contractLine(out *outcome, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, def := range defs {
		m, ok := out.Metrics[def.Name]
		if !ok {
			return nil, fmt.Errorf("%s reported no %s", out.Workload, def.Name)
		}
		metrics[def.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics})
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	outcomes, err := runAll(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, out := range outcomes {
		if !out.Correct {
			return 1
		}
	}
	return 0
}

// runAll builds the daemon, runs the selection -repeat times and prints the
// reports.  It returns every outcome; an error means a run could not be
// completed at all.
func runAll(o options, stdout io.Writer) ([]*outcome, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, buildDir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{root: root, bin: bin, tmp: tmp, seed: o.seed, scale: 1, daemons: &daemonSet{}}
	if o.quick {
		e.scale = quickScale
	}

	// A signal ends the run; the daemon it may have running goes with it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	defer func() {
		signal.Stop(sigc)
		close(finished)
	}()
	go func() {
		select {
		case <-sigc:
			e.daemons.killAll()
			os.RemoveAll(tmp)
			os.Exit(1)
		case <-finished:
		}
	}()

	selected := workloads
	if o.workload != "" {
		selected = []workloadDef{*findWorkload(o.workload)}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var outcomes []*outcome
	for rep := 0; rep < o.repeat; rep++ {
		for i := range selected {
			out, err := runOne(e, &selected[i], o)
			if err != nil {
				return outcomes, err
			}
			outcomes = append(outcomes, out)
			printOutcome(stdout, out, defs, o)
		}
	}
	exactOK := true
	if o.repeat > 1 {
		exactOK = printNoise(stdout, outcomes, defs)
	}
	if o.jsonPath != "" {
		if err := writeReport(o.jsonPath, root, o, outcomes); err != nil {
			return outcomes, err
		}
	}
	if len(outcomes) == 1 {
		line, err := contractLine(outcomes[0], defs)
		if err != nil {
			return outcomes, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !exactOK {
		return outcomes, fmt.Errorf("an exact metric differed between repetitions of the same seed")
	}
	return outcomes, nil
}
