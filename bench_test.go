// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (see DESIGN.md's per-experiment index).  Each b.N iteration
// runs the full experiment cell; reported custom metrics are modeled time
// (ns-modeled/op) from the device cost model plus modeled CPU, the
// evaluation's headline metric.  cmd/benchfig prints the same data as the
// paper's tables.
//
// The corpora are the scaled synthetic analogues of Table I; use -short to
// shrink them further.
package ntadoc

import (
	"fmt"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/harness"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// benchSpecs returns the four dataset analogues, shrunk under -short.
func benchSpecs(b *testing.B) []datagen.Spec {
	scale := 0.35
	if testing.Short() {
		scale = 0.1
	}
	specs := make([]datagen.Spec, len(datagen.Datasets))
	for i, s := range datagen.Datasets {
		specs[i] = s.Scaled(scale)
	}
	return specs
}

func corpusFor(b *testing.B, spec datagen.Spec) *harness.Corpus {
	b.Helper()
	c, err := harness.GetCorpus(spec)
	if err != nil {
		b.Fatalf("corpus %s: %v", spec.Name, err)
	}
	return c
}

// reportPair reports modeled time and the speedup versus a baseline result.
func reportPair(b *testing.B, self, other harness.Result) {
	b.ReportMetric(float64(self.Total.Nanoseconds()), "ns-modeled/op")
	b.ReportMetric(self.Speedup(other), "speedup")
}

// BenchmarkFig5a measures N-TADOC (phase-level persistence) against
// uncompressed text analytics on NVM: Figure 5(a), avg 2.04x in the paper.
func BenchmarkFig5a(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		for _, task := range analytics.Tasks {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, task), func(b *testing.B) {
				c := corpusFor(b, spec)
				for i := 0; i < b.N; i++ {
					nt, err := harness.RunNTADOC(c, task, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					un, err := harness.RunUncompressed(c, task, nvm.KindNVM)
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						reportPair(b, nt, un)
					}
				}
			})
		}
	}
}

// BenchmarkFig5b is Figure 5(b): operation-level persistence, avg 1.40x.
func BenchmarkFig5b(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		for _, task := range analytics.Tasks {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, task), func(b *testing.B) {
				c := corpusFor(b, spec)
				for i := 0; i < b.N; i++ {
					nt, err := harness.RunNTADOC(c, task, core.Options{Persistence: core.OpLevel})
					if err != nil {
						b.Fatal(err)
					}
					un, err := harness.RunUncompressed(c, task, nvm.KindNVM)
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						reportPair(b, nt, un)
					}
				}
			})
		}
	}
}

// BenchmarkFig6 measures the gap to the theoretical upper bound — TADOC on
// pure DRAM (the paper reports N-TADOC 1.59x slower on average).  The
// reported "slowdown" metric is ntadoc/tadoc.
func BenchmarkFig6(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		for _, task := range analytics.Tasks {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, task), func(b *testing.B) {
				c := corpusFor(b, spec)
				for i := 0; i < b.N; i++ {
					nt, err := harness.RunNTADOC(c, task, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					td, err := harness.RunTADOC(c, task)
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						b.ReportMetric(float64(nt.Total.Nanoseconds()), "ns-modeled/op")
						b.ReportMetric(td.Speedup(nt), "slowdown-vs-DRAM")
					}
				}
			})
		}
	}
}

// BenchmarkFig7 runs the same N-TADOC engine on SSD and HDD block devices
// under the paper's 20% page-cache memory budget (speedups 1.87x and 2.92x).
func BenchmarkFig7(b *testing.B) {
	for _, kind := range []nvm.Kind{nvm.KindSSD, nvm.KindHDD} {
		for _, spec := range benchSpecs(b) {
			for _, task := range analytics.Tasks {
				b.Run(fmt.Sprintf("%s/%s/%s", kind, spec.Name, task), func(b *testing.B) {
					c := corpusFor(b, spec)
					for i := 0; i < b.N; i++ {
						nt, err := harness.RunNTADOC(c, task, core.Options{})
						if err != nil {
							b.Fatal(err)
						}
						blk, err := harness.RunNTADOC(c, task, core.Options{Kind: kind})
						if err != nil {
							b.Fatal(err)
						}
						if i == b.N-1 {
							reportPair(b, nt, blk)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDRAMSavings reproduces §VI-C: the DRAM residency of N-TADOC
// versus TADOC (avg 70.7% saving in the paper), reported as saving-pct.
func BenchmarkDRAMSavings(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		for _, task := range []analytics.Task{analytics.TaskWordCount, analytics.TaskSequenceCount} {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, task), func(b *testing.B) {
				c := corpusFor(b, spec)
				for i := 0; i < b.N; i++ {
					td, err := harness.RunTADOC(c, task)
					if err != nil {
						b.Fatal(err)
					}
					nt, err := harness.RunNTADOC(c, task, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						saving := 1 - float64(nt.DRAMBytes)/float64(td.DRAMBytes)
						b.ReportMetric(saving*100, "saving-pct")
						b.ReportMetric(float64(nt.NVMBytes), "nvm-bytes")
					}
				}
			})
		}
	}
}

// BenchmarkTable2 reproduces the Table II time breakdown for datasets C and
// D, reporting per-phase modeled times.
func BenchmarkTable2(b *testing.B) {
	for _, spec := range benchSpecs(b) {
		if spec.Name != "C" && spec.Name != "D" {
			continue
		}
		for _, task := range analytics.Tasks {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, task), func(b *testing.B) {
				c := corpusFor(b, spec)
				for i := 0; i < b.N; i++ {
					nt, err := harness.RunNTADOC(c, task, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if i == b.N-1 {
						b.ReportMetric(float64(nt.Init.Nanoseconds()), "ns-init/op")
						b.ReportMetric(float64(nt.Traversal.Nanoseconds()), "ns-traversal/op")
					}
				}
			})
		}
	}
}

// BenchmarkFigTraversal reproduces §VI-E: top-down versus bottom-up
// traversal on the many-small-files dataset B (the paper reports top-down
// ~1000x slower at full 134k-file scale).
func BenchmarkFigTraversal(b *testing.B) {
	specs := benchSpecs(b)
	var specB datagen.Spec
	for _, s := range specs {
		if s.Name == "B" {
			specB = s
		}
	}
	for _, strat := range []core.Strategy{core.TopDown, core.BottomUp} {
		b.Run(fmt.Sprintf("B/term-vector/%s", strat), func(b *testing.B) {
			c := corpusFor(b, specB)
			for i := 0; i < b.N; i++ {
				nt, err := harness.RunNTADOC(c, analytics.TaskTermVector, core.Options{Strategy: strat})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(nt.Traversal.Nanoseconds()), "ns-traversal/op")
				}
			}
		})
	}
}

// BenchmarkFigCrossEval reproduces §III-B and §VI-F: the naive NVM port
// (no pruning, growable structures, scattered layout — the paper's 13.37x
// overhead) against TADOC and N-TADOC.
func BenchmarkFigCrossEval(b *testing.B) {
	naive := core.Options{
		NoPruning: true, NoBounds: true, Scatter: true,
		Persistence: core.OpLevel, PerOpCommit: true,
	}
	for _, spec := range benchSpecs(b) {
		b.Run(spec.Name+"/word count", func(b *testing.B) {
			c := corpusFor(b, spec)
			for i := 0; i < b.N; i++ {
				np, err := harness.RunNTADOC(c, analytics.TaskWordCount, naive)
				if err != nil {
					b.Fatal(err)
				}
				td, err := harness.RunTADOC(c, analytics.TaskWordCount)
				if err != nil {
					b.Fatal(err)
				}
				nt, err := harness.RunNTADOC(c, analytics.TaskWordCount, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(td.Speedup(np), "naive-slowdown-vs-DRAM")
					b.ReportMetric(nt.Speedup(np), "ntadoc-speedup-vs-naive")
				}
			}
		})
	}
}

// Ablation benches isolate the design choices DESIGN.md calls out.

// BenchmarkAblationPruning compares word count with and without Algorithm
// 1's pruning (challenge 1).
func BenchmarkAblationPruning(b *testing.B) {
	spec := datagen.DatasetC.Scaled(0.35)
	for name, opts := range map[string]core.Options{
		"pruned": {},
		"raw":    {NoPruning: true},
	} {
		b.Run(name, func(b *testing.B) {
			c := corpusFor(b, spec)
			for i := 0; i < b.N; i++ {
				nt, err := harness.RunNTADOC(c, analytics.TaskWordCount, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(nt.Total.Nanoseconds()), "ns-modeled/op")
					b.ReportMetric(float64(nt.Device.GranuleReads), "granule-reads")
				}
			}
		})
	}
}

// BenchmarkAblationBounds compares upper-bound allocation (Algorithm 2)
// against growable structures that reconstruct on NVM (challenge 2).
func BenchmarkAblationBounds(b *testing.B) {
	spec := datagen.DatasetC.Scaled(0.35)
	for name, opts := range map[string]core.Options{
		"bounded":  {},
		"growable": {NoBounds: true},
	} {
		b.Run(name, func(b *testing.B) {
			c := corpusFor(b, spec)
			for i := 0; i < b.N; i++ {
				nt, err := harness.RunNTADOC(c, analytics.TaskWordCount, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(nt.Total.Nanoseconds()), "ns-modeled/op")
					b.ReportMetric(float64(nt.Device.BytesWritten), "bytes-written")
				}
			}
		})
	}
}

// BenchmarkAblationLocality compares the contiguous topological pool layout
// against a scattered one (the locality half of challenge 1).
func BenchmarkAblationLocality(b *testing.B) {
	spec := datagen.DatasetC.Scaled(0.35)
	for name, opts := range map[string]core.Options{
		"contiguous": {},
		"scattered":  {Scatter: true},
	} {
		b.Run(name, func(b *testing.B) {
			c := corpusFor(b, spec)
			for i := 0; i < b.N; i++ {
				nt, err := harness.RunNTADOC(c, analytics.TaskWordCount, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(nt.Total.Nanoseconds()), "ns-modeled/op")
					b.ReportMetric(float64(nt.Device.CacheMisses), "cache-misses")
				}
			}
		})
	}
}

// BenchmarkCompress measures grammar inference (Sequitur) throughput.
func BenchmarkCompress(b *testing.B) {
	spec := datagen.DatasetA.Scaled(0.35)
	files, d := spec.GenerateWithDict()
	var total int64
	for _, f := range files {
		total += int64(len(f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		names := make([]string, len(files))
		dc := &Dictionary{d: d}
		if _, err := CompressTokens(files, names, dc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(total * 4)
}
