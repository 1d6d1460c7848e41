package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// defsFor is the list of metrics an outcome is reported with: the mode's
// list, plus live-ingest's own two on its untraced run.
func defsFor(out *outcome, defs []metricDef) []metricDef {
	if out.Traced || out.Workload != "live-ingest" {
		return defs
	}
	return append(append([]metricDef(nil), defs...), ingestOnly...)
}

// printOutcome prints one workload's metrics by name with unit, clock and
// sample count.
func printOutcome(w io.Writer, out *outcome, defs []metricDef, o options) {
	mode := "untraced run: end-to-end metrics"
	if out.Traced {
		mode = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed %d  window %gs  %s", out.Workload, o.seed, o.seconds, mode)
	if o.quick {
		fmt.Fprint(w, "  [-quick: NOT COMPARABLE]")
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tclock\tsamples\tbetter\tbound")
	for _, def := range defsFor(out, defs) {
		m, ok := out.Metrics[def.Name]
		if !ok {
			continue
		}
		clock := string(def.Clock)
		if def.Exact {
			clock += ", exact"
		}
		bound := "-"
		if def.Bound > 0 {
			bound = fmt.Sprintf("%g%%", def.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%s\t%s\n", def.Name, m.Value, m.Unit, clock, m.Samples, def.Better, bound)
	}
	tw.Flush()
	fmt.Fprintf(w, "attempted %d  failed %d  failed_ratio %.6g  correct %v\n",
		out.Attempted, out.Failed, float64(out.Failed)/float64(max(out.Attempted, 1)), out.Correct)
	if out.Error != "" {
		fmt.Fprintf(w, "first failure: %s\n", out.Error)
	}
	for _, why := range out.Invalid {
		fmt.Fprintf(w, "INVALID RUN: %s\n", why)
	}
	fmt.Fprintln(w)
}

// printNoise prints, per workload and metric, the minimum, median and maximum
// over the repetitions and their range as a share of the median against the
// metric's bound.  Exact metrics must be identical across repetitions of one
// seed; it reports whether they were.
func printNoise(w io.Writer, outcomes []*outcome, defs []metricDef) bool {
	exactOK := true
	byWorkload := map[string][]*outcome{}
	var order []string
	for _, out := range outcomes {
		if _, seen := byWorkload[out.Workload]; !seen {
			order = append(order, out.Workload)
		}
		byWorkload[out.Workload] = append(byWorkload[out.Workload], out)
	}
	for _, name := range order {
		runs := byWorkload[name]
		fmt.Fprintf(w, "== noise over %d repetitions: %s\n", len(runs), name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tmin\tmedian\tmax\t(max-min)/median\tbound\tverdict")
		for _, def := range defsFor(runs[0], defs) {
			var vals []float64
			for _, r := range runs {
				if m, ok := r.Metrics[def.Name]; ok {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			s := sortedCopy(vals)
			med := median(vals)
			spread := 0.0
			if med != 0 {
				spread = (s[len(s)-1] - s[0]) / med
			}
			verdict, bound := "-", "-"
			switch {
			case def.Exact:
				verdict = "identical"
				if s[0] != s[len(s)-1] {
					verdict, exactOK = "EXACT METRIC DIFFERS", false
				}
			case def.Bound > 0:
				bound = fmt.Sprintf("%g%%", def.Bound*100)
				verdict = "within bound"
				if spread > def.Bound {
					verdict = "WIDER THAN BOUND"
				}
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", def.Name, s[0], med, s[len(s)-1], spread*100, bound, verdict)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return exactOK
}

// writeReport writes the full JSON report: where and how the numbers were
// taken, the sizing constants, and every outcome.
func writeReport(path, root string, o options, outcomes []*outcome) error {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	daemonProcs := os.Getenv("GOMAXPROCS") // ntadocd inherits the environment
	if daemonProcs == "" {
		daemonProcs = fmt.Sprint(runtime.NumCPU())
	}
	doc := struct {
		Benchmark string         `json:"benchmark"`
		Env       map[string]any `json:"env"`
		Sizing    map[string]any `json:"sizing"`
		Outcomes  []*outcome     `json:"outcomes"`
	}{
		Benchmark: "bench",
		Env: map[string]any{
			"nproc":                runtime.NumCPU(),
			"gomaxprocs_generator": runtime.GOMAXPROCS(0),
			"gomaxprocs_ntadocd":   daemonProcs,
			"go_version":           runtime.Version(),
			"commit":               commit,
			"seed":                 o.seed,
			"seconds":              o.seconds,
			"quick":                o.quick,
			"comparable":           !o.quick,
			"traced":               o.trace,
			"repeat":               o.repeat,
		},
		Sizing: map[string]any{
			"closed_loop_clients":      closedClients,
			"reader_clients":           readerClients,
			"append_batches_per_s":     appendRate,
			"append_docs_per_batch":    appendBatch,
			"ingest_base_docs":         ingestBaseDocs,
			"ingest_log_cap_bytes":     ingestLogCap,
			"daemon_shards":            daemonShards,
			"cold_miss_docs":           coldMissFiles,
			"setup_repetitions":        setupReps,
			"storage_probe_operations": probeOps,
			"pmem_probe_transactions":  probeTxs,
			"ingest_probe_batches":     probeBatches,
		},
		Outcomes: outcomes,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
