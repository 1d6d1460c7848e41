// Command benchfig regenerates every table and figure of the paper's
// evaluation (§VI) on the synthetic dataset analogues:
//
//	benchfig -fig 5a        Fig 5(a): N-TADOC (phase-level) vs uncompressed on NVM
//	benchfig -fig 5b        Fig 5(b): N-TADOC (operation-level) vs uncompressed
//	benchfig -fig 6         Fig 6: N-TADOC vs TADOC on DRAM
//	benchfig -fig 7         Fig 7: N-TADOC on NVM vs the same engine on SSD/HDD
//	benchfig -fig dram      §VI-C: DRAM space savings vs TADOC
//	benchfig -fig table2    Table II: init/traversal time breakdown (C, D)
//	benchfig -fig phases    §VI-D: per-phase speedups (C, D)
//	benchfig -fig traversal §VI-E: top-down vs bottom-up on dataset B
//	benchfig -fig cross     §III-B/§VI-F: naive NVM port and cross-evaluation
//	benchfig -fig datasets  Table I analogue: dataset statistics
//	benchfig -fig prune     §IV-B: grammar redundancy eliminated by pruning
//	benchfig -fig fused     fused multi-op batch vs sequential single-op runs
//	benchfig -fig shards    sharded engine: parallel build + scatter-gather batch vs K=1
//	benchfig -fig all       everything above
//
// -scale shrinks the corpora for quick runs (default 1.0 = the scaled-down
// analogues described in DESIGN.md).  Reported times are modeled times from
// the device cost model plus modeled CPU; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"text/tabwriter"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/harness"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

func main() {
	fig := flag.String("fig", "all", "figure/table to regenerate (5a 5b 6 7 dram table2 phases traversal cross datasets prune all)")
	scale := flag.Float64("scale", 1.0, "corpus scale factor in (0,1]")
	parallel := flag.Int("parallel", 1, "experiment cells to run concurrently (modeled figures are unaffected; only wall-clock changes)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	benchrepeat := flag.Int("benchrepeat", 1, "repeat the selected figures this many times (wall-clock measurement)")
	flag.Parse()

	// Batch tool: the grid churns through large short-lived device images,
	// so relax the GC target unless the user asked for something specific.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	harness.SetParallelism(*parallel)

	specs := make([]datagen.Spec, len(datagen.Datasets))
	for i, s := range datagen.Datasets {
		specs[i] = s.Scaled(*scale)
	}

	runners := map[string]func([]datagen.Spec) error{
		"5a":        fig5a,
		"5b":        fig5b,
		"6":         fig6,
		"7":         fig7,
		"dram":      figDRAM,
		"table2":    figTable2,
		"phases":    figPhases,
		"traversal": figTraversal,
		"cross":     figCross,
		"datasets":  figDatasets,
		"prune":     figPrune,
		"endurance": figEndurance,
		"fused":     figFused,
		"shards":    figShards,
	}
	order := []string{"datasets", "prune", "5a", "5b", "6", "7", "dram", "table2", "phases", "traversal", "cross", "endurance", "fused", "shards"}

	for rep := 0; rep < *benchrepeat; rep++ {
		if *fig == "all" {
			for _, name := range order {
				if err := runners[name](specs); err != nil {
					fatal(err)
				}
			}
			continue
		}
		run, ok := runners[*fig]
		if !ok {
			fatal(fmt.Errorf("unknown figure %q", *fig))
		}
		if err := run(specs); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// speedupMatrix runs every (dataset, task) cell with both runners and prints
// other/self speedups.  Cells run up to -parallel at a time; results are
// stored by cell index and printed serially afterwards, so the output is
// byte-identical to a serial run.
func speedupMatrix(title string, specs []datagen.Spec,
	self func(*harness.Corpus, analytics.Task) (harness.Result, error),
	other func(*harness.Corpus, analytics.Task) (harness.Result, error)) error {
	header(title)
	tasks := analytics.Tasks
	sps := make([]float64, len(tasks)*len(specs))
	err := harness.ForEachCell(len(sps), func(i int) error {
		task, spec := tasks[i/len(specs)], specs[i%len(specs)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		rs, err := self(c, task)
		if err != nil {
			return err
		}
		ro, err := other(c, task)
		if err != nil {
			return err
		}
		sps[i] = rs.Speedup(ro)
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprint(w, "task")
	for _, s := range specs {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w, "\tmean")
	var all []float64
	for ti, task := range tasks {
		fmt.Fprintf(w, "%s", task)
		row := sps[ti*len(specs) : (ti+1)*len(specs)]
		for _, sp := range row {
			fmt.Fprintf(w, "\t%.2fx", sp)
		}
		all = append(all, row...)
		fmt.Fprintf(w, "\t%.2fx\n", harness.GeoMean(row))
	}
	fmt.Fprintf(w, "overall\t\t\t\t\t%.2fx\n", harness.GeoMean(all))
	return w.Flush()
}

func fig5a(specs []datagen.Spec) error {
	return speedupMatrix(
		"Fig 5(a): N-TADOC (phase-level) speedup over uncompressed text analytics on NVM",
		specs,
		func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
			return harness.RunNTADOC(c, t, core.Options{})
		},
		func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
			return harness.RunUncompressed(c, t, nvm.KindNVM)
		},
	)
}

func fig5b(specs []datagen.Spec) error {
	return speedupMatrix(
		"Fig 5(b): N-TADOC (operation-level) speedup over uncompressed text analytics on NVM",
		specs,
		func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
			return harness.RunNTADOC(c, t, core.Options{Persistence: core.OpLevel})
		},
		func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
			return harness.RunUncompressed(c, t, nvm.KindNVM)
		},
	)
}

func fig6(specs []datagen.Spec) error {
	// Reported the paper's way: how many times slower N-TADOC is than the
	// DRAM upper bound (TADOC) — slowdown = ntadoc/tadoc.
	header("Fig 6: N-TADOC slowdown relative to TADOC on DRAM (1.0 = parity)")
	tasks := analytics.Tasks
	slows := make([]float64, len(tasks)*len(specs))
	err := harness.ForEachCell(len(slows), func(i int) error {
		task, spec := tasks[i/len(specs)], specs[i%len(specs)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		nt, err := harness.RunNTADOC(c, task, core.Options{})
		if err != nil {
			return err
		}
		td, err := harness.RunTADOC(c, task)
		if err != nil {
			return err
		}
		slows[i] = td.Speedup(nt) // tadoc faster => >1
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprint(w, "task")
	for _, s := range specs {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w, "\tmean")
	var all []float64
	for ti, task := range tasks {
		fmt.Fprintf(w, "%s", task)
		row := slows[ti*len(specs) : (ti+1)*len(specs)]
		for _, slow := range row {
			fmt.Fprintf(w, "\t%.2fx", slow)
		}
		all = append(all, row...)
		fmt.Fprintf(w, "\t%.2fx\n", harness.GeoMean(row))
	}
	fmt.Fprintf(w, "overall\t\t\t\t\t%.2fx\n", harness.GeoMean(all))
	return w.Flush()
}

func fig7(specs []datagen.Spec) error {
	for _, kind := range []nvm.Kind{nvm.KindSSD, nvm.KindHDD} {
		err := speedupMatrix(
			fmt.Sprintf("Fig 7: N-TADOC on NVM speedup over N-TADOC on %s (page cache = 20%% of dataset)", kind),
			specs,
			func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
				return harness.RunNTADOC(c, t, core.Options{})
			},
			func(c *harness.Corpus, t analytics.Task) (harness.Result, error) {
				return harness.RunNTADOC(c, t, core.Options{Kind: kind})
			},
		)
		if err != nil {
			return err
		}
	}
	return nil
}

func figDRAM(specs []datagen.Spec) error {
	header("§VI-C: DRAM space savings of N-TADOC vs TADOC (RSS analogue)")
	tasks := analytics.Tasks
	type dramCell struct {
		tdBytes, ntBytes int64
		saving           float64
	}
	cells := make([]dramCell, len(tasks)*len(specs))
	err := harness.ForEachCell(len(cells), func(i int) error {
		task, spec := tasks[i/len(specs)], specs[i%len(specs)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		td, err := harness.RunTADOC(c, task)
		if err != nil {
			return err
		}
		nt, err := harness.RunNTADOC(c, task, core.Options{})
		if err != nil {
			return err
		}
		cells[i] = dramCell{
			tdBytes: td.DRAMBytes,
			ntBytes: nt.DRAMBytes,
			saving:  1 - float64(nt.DRAMBytes)/float64(td.DRAMBytes),
		}
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "task\tdataset\tTADOC DRAM\tN-TADOC DRAM\tsaving")
	perDataset := map[string][]float64{}
	perTask := map[analytics.Task][]float64{}
	var all []float64
	for ti, task := range tasks {
		for si, spec := range specs {
			cell := cells[ti*len(specs)+si]
			perDataset[spec.Name] = append(perDataset[spec.Name], cell.saving)
			perTask[task] = append(perTask[task], cell.saving)
			all = append(all, cell.saving)
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.1f%%\n",
				task, spec.Name, fmtBytes(cell.tdBytes), fmtBytes(cell.ntBytes), cell.saving*100)
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: flush savings table: %v\n", err)
	}
	fmt.Println("per dataset:")
	for _, spec := range specs {
		fmt.Printf("  %s: %.1f%%\n", spec.Name, mean(perDataset[spec.Name])*100)
	}
	fmt.Println("per task:")
	for _, task := range analytics.Tasks {
		fmt.Printf("  %s: %.1f%%\n", task, mean(perTask[task])*100)
	}
	fmt.Printf("average saving: %.1f%%\n", mean(all)*100)
	return nil
}

func figTable2(specs []datagen.Spec) error {
	header("Table II: N-TADOC time breakdown (modeled milliseconds)")
	var sel []datagen.Spec
	for _, spec := range specs {
		if spec.Name == "C" || spec.Name == "D" {
			sel = append(sel, spec)
		}
	}
	tasks := analytics.Tasks
	cells := make([]harness.Result, len(sel)*len(tasks))
	err := harness.ForEachCell(len(cells), func(i int) error {
		spec, task := sel[i/len(tasks)], tasks[i%len(tasks)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		cells[i], err = harness.RunNTADOC(c, task, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tbenchmark\tinitial phase\ttraversal phase")
	for si, spec := range sel {
		for ti, task := range tasks {
			nt := cells[si*len(tasks)+ti]
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\n",
				spec.Name, task, ms(nt.Init), ms(nt.Traversal))
		}
	}
	return w.Flush()
}

func figPhases(specs []datagen.Spec) error {
	header("§VI-D: per-phase speedups over uncompressed (datasets C and D)")
	var sel []datagen.Spec
	for _, spec := range specs {
		if spec.Name == "C" || spec.Name == "D" {
			sel = append(sel, spec)
		}
	}
	tasks := analytics.Tasks
	type phaseCell struct{ is, ts float64 }
	cells := make([]phaseCell, len(sel)*len(tasks))
	err := harness.ForEachCell(len(cells), func(i int) error {
		spec, task := sel[i/len(tasks)], tasks[i%len(tasks)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		nt, err := harness.RunNTADOC(c, task, core.Options{})
		if err != nil {
			return err
		}
		un, err := harness.RunUncompressed(c, task, nvm.KindNVM)
		if err != nil {
			return err
		}
		cells[i] = phaseCell{is: ratio(un.Init, nt.Init), ts: ratio(un.Traversal, nt.Traversal)}
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tbenchmark\tinit speedup\ttraversal speedup")
	for si, spec := range sel {
		var initS, travS []float64
		for ti, task := range tasks {
			cell := cells[si*len(tasks)+ti]
			initS = append(initS, cell.is)
			travS = append(travS, cell.ts)
			fmt.Fprintf(w, "%s\t%s\t%.2fx\t%.2fx\n", spec.Name, task, cell.is, cell.ts)
		}
		fmt.Fprintf(w, "%s\taverage\t%.2fx\t%.2fx\n", spec.Name,
			harness.GeoMean(initS), harness.GeoMean(travS))
	}
	return w.Flush()
}

func figTraversal(specs []datagen.Spec) error {
	header("§VI-E: traversal strategies on dataset B (many small files)")
	var specB datagen.Spec
	for _, s := range specs {
		if s.Name == "B" {
			specB = s
		}
	}
	// The top-down penalty grows with file count (the paper reports
	// ~1000x at its full 134k-file scale); show the trend across three
	// file counts.
	fracs := []int{4, 2, 1}
	tasks := []analytics.Task{analytics.TaskTermVector, analytics.TaskInvertedIndex}
	type travCell struct{ td, bu harness.Result }
	cells := make([]travCell, len(fracs)*len(tasks))
	err := harness.ForEachCell(len(cells), func(i int) error {
		spec := specB
		spec.Files = specB.Files / fracs[i/len(tasks)]
		task := tasks[i%len(tasks)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		td, err := harness.RunNTADOC(c, task, core.Options{Strategy: core.TopDown})
		if err != nil {
			return err
		}
		bu, err := harness.RunNTADOC(c, task, core.Options{Strategy: core.BottomUp})
		if err != nil {
			return err
		}
		cells[i] = travCell{td: td, bu: bu}
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "files\tbenchmark\ttop-down traversal\tbottom-up traversal\tbottom-up advantage")
	for fi, frac := range fracs {
		for ti, task := range tasks {
			cell := cells[fi*len(tasks)+ti]
			fmt.Fprintf(w, "%d\t%s\t%.2f ms\t%.2f ms\t%.1fx\n",
				specB.Files/frac, task, ms(cell.td.Traversal), ms(cell.bu.Traversal),
				ratio(cell.td.Traversal, cell.bu.Traversal))
		}
	}
	return w.Flush()
}

func figCross(specs []datagen.Spec) error {
	header("§III-B / §VI-F: naive NVM port and cross-evaluation")
	// The §III-B naive port: std structures pointed at NVM through a
	// transactional allocator — untrimmed bodies, growable tables, no
	// layout control, and a PMDK-style transaction per mutation.
	naive := core.Options{
		NoPruning: true, NoBounds: true, Scatter: true,
		Persistence: core.OpLevel, PerOpCommit: true,
	}
	type crossCell struct{ slow, speed float64 }
	cells := make([]crossCell, len(specs))
	err := harness.ForEachCell(len(cells), func(i int) error {
		c, err := harness.GetCorpus(specs[i])
		if err != nil {
			return err
		}
		task := analytics.TaskWordCount
		np, err := harness.RunNTADOC(c, task, naive)
		if err != nil {
			return err
		}
		td, err := harness.RunTADOC(c, task)
		if err != nil {
			return err
		}
		nt, err := harness.RunNTADOC(c, task, core.Options{})
		if err != nil {
			return err
		}
		cells[i] = crossCell{slow: td.Speedup(np), speed: nt.Speedup(np)}
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tnaive port slowdown vs TADOC\tN-TADOC speedup vs naive port")
	var slows, speeds []float64
	for i, spec := range specs {
		slows = append(slows, cells[i].slow)
		speeds = append(speeds, cells[i].speed)
		fmt.Fprintf(w, "%s\t%.2fx\t%.2fx\n", spec.Name, cells[i].slow, cells[i].speed)
	}
	fmt.Fprintf(w, "mean\t%.2fx\t%.2fx\n", harness.GeoMean(slows), harness.GeoMean(speeds))
	return w.Flush()
}

func figDatasets(specs []datagen.Spec) error {
	header("Table I analogue: dataset statistics (scaled synthetic corpora)")
	stats := make([]cfg.Stats, len(specs))
	err := harness.ForEachCell(len(specs), func(i int) error {
		c, err := harness.GetCorpus(specs[i])
		if err != nil {
			return err
		}
		stats[i] = c.G.ComputeStats()
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tfile#\trule#\tvocabulary\ttokens\tcompressed symbols\tratio")
	for i, spec := range specs {
		st := stats[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			spec.Name, st.Files, st.Rules, st.Vocabulary, st.Expanded,
			st.BodySymbols, float64(st.BodySymbols)/float64(st.Expanded))
	}
	return w.Flush()
}

func figPrune(specs []datagen.Spec) error {
	header("§IV-B: grammar redundancy eliminated by pruning")
	type pruneCell struct{ raw, pruned int64 }
	cells := make([]pruneCell, len(specs))
	err := harness.ForEachCell(len(specs), func(i int) error {
		c, err := harness.GetCorpus(specs[i])
		if err != nil {
			return err
		}
		raw, pruned := pruneSizes(c.G)
		cells[i] = pruneCell{raw: raw, pruned: pruned}
		return nil
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\traw body bytes\tpruned body bytes\teliminated")
	for i, spec := range specs {
		raw, pruned := cells[i].raw, cells[i].pruned
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f%%\n",
			spec.Name, fmtBytes(raw), fmtBytes(pruned), (1-float64(pruned)/float64(raw))*100)
	}
	return w.Flush()
}

// figEndurance quantifies the §VII claim that N-TADOC's design reduces NVM
// write traffic (improving media endurance): the media granules one word
// count flushes, for N-TADOC under both persistence strategies and the naive
// port, and what each strategy spends per counter update — flushes, fences
// and operation-log bytes — over the whole run, initialization included.
func figEndurance(specs []datagen.Spec) error {
	header("§VII: NVM write traffic per word-count run (media granules flushed)")
	strategies := []struct {
		name string
		opts core.Options
	}{
		{"phase-level", core.Options{}},
		{"op-level", core.Options{Persistence: core.OpLevel}},
		{"naive port", core.Options{
			NoPruning: true, NoBounds: true, Scatter: true,
			Persistence: core.OpLevel, PerOpCommit: true,
		}},
	}
	cells := make([]harness.Result, len(specs)*len(strategies))
	err := harness.ForEachCell(len(cells), func(i int) error {
		c, err := harness.GetCorpus(specs[i/len(strategies)])
		if err != nil {
			return err
		}
		cells[i], err = harness.RunNTADOC(c, analytics.TaskWordCount, strategies[i%len(strategies)].opts)
		return err
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tN-TADOC phase-level\tN-TADOC op-level\tnaive port\tnaive amplification")
	for i, spec := range specs {
		// Granules made durable: flush traffic is what wears media, and a
		// flush wears every granule it touches.
		row := cells[i*len(strategies):]
		pl, ol, nv := row[0].Device.FlushedGranules, row[1].Device.FlushedGranules, row[2].Device.FlushedGranules
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1fx\n", spec.Name, pl, ol, nv, float64(nv)/float64(pl))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
	w = newTab()
	fmt.Fprintln(w, "dataset\tstrategy\tcounter updates\tflushes/update\tfences/update\tlog bytes/update")
	for i, r := range cells {
		n := float64(r.Persist.Updates)
		fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\t%.2f\n",
			specs[i/len(strategies)].Name, strategies[i%len(strategies)].name, r.Persist.Updates,
			float64(r.Device.Flushes)/n, float64(r.Device.Drains)/n, float64(r.Persist.LogBytes)/n)
	}
	return w.Flush()
}

// figFused quantifies the operation kernel's fused execution: all six tasks
// in one traversal versus six back-to-back single-op runs on an identical
// engine — modeled traversal time and device read traffic.
func figFused(specs []datagen.Spec) error {
	header("Fused execution: all six tasks, one traversal vs six sequential runs")
	ops := analytics.Ops()
	cells := make([]harness.FusedCell, len(specs))
	err := harness.ForEachCell(len(cells), func(i int) error {
		c, err := harness.GetCorpus(specs[i])
		if err != nil {
			return err
		}
		cells[i], err = harness.RunFusedComparison(c, ops, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tsequential\tfused\tspeedup\tseq reads\tfused reads\tread reduction")
	var speedups, reductions []float64
	for i, spec := range specs {
		cell := cells[i]
		speedup := ratio(cell.SeqNanos, cell.FusedNanos)
		reduction := 1 - float64(cell.FusedReads)/float64(cell.SeqReads)
		speedups = append(speedups, speedup)
		reductions = append(reductions, reduction)
		fmt.Fprintf(w, "%s\t%.2f ms\t%.2f ms\t%.2fx\t%d\t%d\t%.1f%%\n",
			spec.Name, ms(cell.SeqNanos), ms(cell.FusedNanos), speedup,
			cell.SeqReads, cell.FusedReads, reduction*100)
	}
	fmt.Fprintf(w, "mean\t\t\t%.2fx\t\t\t%.1f%%\n",
		harness.GeoMean(speedups), mean(reductions)*100)
	return w.Flush()
}

// figShards quantifies the sharded engine: the corpus split into K
// independent shards, built in parallel, with the fused six-task batch
// scattered across the shards and gathered.  Speedups are modeled
// critical-path times relative to K=1, and the gather column is the merge's
// share of the batch traversal (its critical path; none at K=1, where one
// shard needs no merge); the compression delta is the growth of the total
// grammar, the price of not sharing redundancy across shards.
func figShards(specs []datagen.Spec) error {
	header("Shard scaling: parallel build and scatter-gather fused batch (vs K=1)")
	var sel []datagen.Spec
	for _, spec := range specs {
		if spec.Name == "C" || spec.Name == "D" {
			sel = append(sel, spec)
		}
	}
	ks := []int{1, 2, 4}
	ops := analytics.Ops()
	cells := make([]harness.ShardCell, len(sel)*len(ks))
	err := harness.ForEachCell(len(cells), func(i int) error {
		spec, k := sel[i/len(ks)], ks[i%len(ks)]
		c, err := harness.GetCorpus(spec)
		if err != nil {
			return err
		}
		cells[i], err = harness.RunShardScaling(c, ops, k, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "dataset\tshards\tbuild\tbatch traversal\tgather\tbuild speedup\tbatch speedup\traw symbols\tdedup symbols\tshared rules\tdedup delta")
	for si, spec := range sel {
		base := cells[si*len(ks)]
		for ki := range ks {
			cell := cells[si*len(ks)+ki]
			fmt.Fprintf(w, "%s\t%d\t%.2f ms\t%.2f ms\t%.2f ms\t%.2fx\t%.2fx\t%d\t%d\t%d\t%+.1f%%\n",
				spec.Name, cell.K, ms(cell.BuildTotal), ms(cell.TravTotal), ms(cell.Gather),
				ratio(base.BuildTotal, cell.BuildTotal), ratio(base.TravTotal, cell.TravTotal),
				cell.Symbols, cell.DedupSymbols, cell.SharedRules,
				(float64(cell.DedupSymbols)/float64(base.DedupSymbols)-1)*100)
		}
	}
	return w.Flush()
}

// pruneSizes computes the byte footprint of raw versus pruned rule bodies,
// mirroring the engine's Algorithm 1 compact encoding: 4 bytes per raw
// symbol versus, per distinct (id, freq) pair, 4 bytes plus 4 more only
// when the frequency exceeds one, plus a 4-byte length prefix per rule.
func pruneSizes(g *cfg.Grammar) (raw, pruned int64) {
	for _, body := range g.Rules {
		raw += int64(len(body)) * 4
		subs := map[uint32]int{}
		words := map[uint32]int{}
		for _, s := range body {
			switch {
			case s.IsRule():
				subs[s.RuleIndex()]++
			case s.IsWord():
				words[s.WordID()]++
			}
		}
		pruned += 4
		for _, f := range subs {
			pruned += 4
			if f > 1 {
				pruned += 4
			}
		}
		for _, f := range words {
			pruned += 4
			if f > 1 {
				pruned += 4
			}
		}
	}
	return raw, pruned
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
