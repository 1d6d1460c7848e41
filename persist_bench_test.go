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
// under both persistence strategies, for two global tasks (word count: one
// table, one frame per rule; sequence count: the rules' local tables by
// weight, then the files' root runs) and the heaviest per-file one (ranked
// inverted index: a table per file).  ns/op is host time; the modeled
// traversal time and the device's persistence counts per run are reported
// beside it, and repeat exactly from run to run.
func BenchmarkPersistTask(b *testing.B) {
	a := datasetCArchive(b)
	for _, p := range persistLevels {
		b.Run(p.name, func(b *testing.B) {
			eng, err := NewEngine(a, Options{Persistence: p.p})
			if err != nil {
				b.Fatalf("engine: %v", err)
			}
			defer eng.Close()
			for _, task := range []Task{TaskWordCount, TaskSequenceCount, TaskRankedInvertedIndex} {
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

// persistLevels are the two persistence strategies, by benchmark name.
var persistLevels = []struct {
	name string
	p    Persistence
}{{"phase", PhaseLevel}, {"oplevel", OperationLevel}}

// datasetCArchive compresses dataset C, the `engine-persist` corpus.
func datasetCArchive(b *testing.B) *Archive {
	b.Helper()
	files, d := datagen.DatasetC.GenerateWithDict()
	names := make([]string, len(files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%05d", i)
	}
	a, err := CompressTokens(files, names, &Dictionary{d: d})
	if err != nil {
		b.Fatalf("compress: %v", err)
	}
	return a
}

// BenchmarkNewEngine is the initialization slice of `make microbench`: one
// engine built over dataset C per iteration, under both persistence
// strategies — the work behind the benchmark's setup_s, and behind the delta
// engine every append builds.  ns/op and allocs/op are host figures; the
// modeled initialization time is reported beside them and repeats exactly.
func BenchmarkNewEngine(b *testing.B) {
	a := datasetCArchive(b)
	for _, p := range persistLevels {
		b.Run(p.name, func(b *testing.B) {
			var modeled time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(a, Options{Persistence: p.p})
				if err != nil {
					b.Fatalf("engine: %v", err)
				}
				init, _ := eng.PhaseTimes()
				modeled += init
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(modeled.Nanoseconds())/float64(b.N), "modeled-init-ns/op")
		})
	}
}
