package ntadoc

import (
	"fmt"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/datagen"
)

// BenchmarkPersistTask is the persistent-path slice of `make microbench`: the
// engine task path — the only one that writes the pool, checkpoints and
// redo-logs — on the `engine-persist` workload's shape (dataset C, unsharded),
// under both persistence strategies, for a global task (word count: one
// table, one frame per rule) and the heaviest per-file one (ranked inverted
// index: a table per file).  ns/op is host time; the modeled traversal time
// and the device's persistence counts per run are reported beside it, and
// repeat exactly from run to run.
func BenchmarkPersistTask(b *testing.B) {
	files, d := datagen.DatasetC.GenerateWithDict()
	names := make([]string, len(files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%05d", i)
	}
	a, err := CompressTokens(files, names, &Dictionary{d: d})
	if err != nil {
		b.Fatalf("compress: %v", err)
	}
	for _, p := range []struct {
		name string
		p    Persistence
	}{{"phase", PhaseLevel}, {"oplevel", OperationLevel}} {
		b.Run(p.name, func(b *testing.B) {
			eng, err := NewEngine(a, Options{Persistence: p.p})
			if err != nil {
				b.Fatalf("engine: %v", err)
			}
			defer eng.Close()
			for _, task := range []Task{TaskWordCount, TaskRankedInvertedIndex} {
				spec := NewBatchSpec([]Task{task}, 0)
				b.Run(task.String(), func(b *testing.B) {
					var modeled time.Duration
					before := eng.DeviceCounters()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := eng.RunSpec(spec); err != nil {
							b.Fatal(err)
						}
						_, trav := eng.PhaseTimes()
						modeled += trav
					}
					after, n := eng.DeviceCounters(), float64(b.N)
					b.ReportMetric(float64(modeled.Nanoseconds())/n, "modeled-ns/op")
					b.ReportMetric(float64(after.Flushes-before.Flushes)/n, "flushes/op")
					b.ReportMetric(float64(after.Drains-before.Drains)/n, "fences/op")
					b.ReportMetric(float64(after.FlushedGranules-before.FlushedGranules)/n, "flushed-granules/op")
				})
			}
		})
	}
}
