package ntadoc

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/text-analytics/ntadoc/internal/datagen"
)

// sessionMixShapes are the two corpus shapes the session traversal is
// benchmarked on, one per per-file direction: the `cold-miss` workload's
// (dataset D cut to 32 deep documents, which the planner runs top-down) and
// a many-small-files one (dataset B's first 800 abstracts, which it runs
// bottom-up).  Both are sharded K=2 like the daemon workloads.
var sessionMixShapes = []struct {
	name string
	spec datagen.Spec
}{
	{"D32", func() datagen.Spec { s := datagen.DatasetD; s.Files = 32; return s }()},
	{"B800", func() datagen.Spec { s := datagen.DatasetB; s.Files = 800; return s }()},
}

// sessionMixEngine builds the K=2 engine over one shape.
func sessionMixEngine(tb testing.TB, spec datagen.Spec) *Engine {
	tb.Helper()
	files, d := spec.GenerateWithDict()
	names := make([]string, len(files))
	for i := range names {
		names[i] = fmt.Sprintf("doc%05d", i)
	}
	a, err := CompressTokensSharded(files, names, &Dictionary{d: d}, 2)
	if err != nil {
		tb.Fatalf("compress %s: %v", spec.Name, err)
	}
	eng, err := NewEngine(a, Options{})
	if err != nil {
		tb.Fatalf("engine %s: %v", spec.Name, err)
	}
	tb.Cleanup(func() { eng.Close() })
	return eng
}

// sessionMix is the default served mix: the six single tasks, then all six
// fused.
func sessionMix() []BatchSpec {
	mix := make([]BatchSpec, 0, len(AllTasks)+1)
	for _, t := range AllTasks {
		mix = append(mix, NewBatchSpec([]Task{t}, 0))
	}
	return append(mix, NewBatchSpec(AllTasks, 0))
}

// sessionMixLabel names a spec like the repo benchmark's per-layer metrics
// do: the task, or "fused".
func sessionMixLabel(spec BatchSpec) string {
	if tasks := spec.Tasks(); len(tasks) == 1 {
		return tasks[0].String()
	}
	return "fused"
}

// BenchmarkSessionMix is the kernel-traversal slice of `make microbench`:
// one warmed query session serving the daemon's miss path (RunSpecJSON —
// traversal, shard merge, wire encode) request by request, per task and
// fused, on a top-down and a bottom-up shape.  Compare commits with
// benchstat; allocs/op is the workspace's figure of merit, alloc-B/body-B —
// heap bytes allocated per byte of body returned — the result path's.
func BenchmarkSessionMix(b *testing.B) {
	for _, shape := range sessionMixShapes {
		b.Run(shape.name, func(b *testing.B) {
			eng := sessionMixEngine(b, shape.spec)
			sess, err := eng.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for _, spec := range sessionMix() {
				b.Run(sessionMixLabel(spec), func(b *testing.B) {
					if _, err := sess.RunSpecJSON(ctx, spec); err != nil { // warm the workspace
						b.Fatal(err)
					}
					b.ReportAllocs()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					served := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body, err := sess.RunSpecJSON(ctx, spec)
						if err != nil {
							b.Fatal(err)
						}
						b.SetBytes(int64(len(body)))
						served += len(body)
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(served), "alloc-B/body-B")
					b.ReportMetric(float64(sess.WorkspaceBytes()), "workspace-B")
				})
			}
		})
	}
}

// Allocation budgets of the miss path on the `cold-miss` shape, one warmed
// session: a cycle of the served mix may allocate at most
// mixAllocBytesPerBodyByte bytes per byte of body it returns (measured 2.3;
// the map-based result path allocated 4.6), and the fused batch at most
// fusedMixAllocs objects (measured 672; 37,353 with maps).  Past either,
// something between Fold.Finish and the socket is building per-key structures
// again.
const (
	mixAllocBytesPerBodyByte = 2.6
	fusedMixAllocs           = 1000
)

func TestSessionMixAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("builds the cold-miss corpus")
	}
	sess, err := sessionMixEngine(t, sessionMixShapes[0].spec).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var allocated, served uint64
	for _, spec := range sessionMix() {
		if _, err := sess.RunSpecJSON(ctx, spec); err != nil { // warm the workspace
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := sess.RunSpecJSON(ctx, spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated, served = allocated+after.TotalAlloc-before.TotalAlloc, served+uint64(len(body))
		if n := after.Mallocs - before.Mallocs; sessionMixLabel(spec) == "fused" && n > fusedMixAllocs {
			t.Errorf("the fused batch made %d allocations, budget %d", n, fusedMixAllocs)
		}
	}
	ratio := float64(allocated) / float64(served)
	t.Logf("one cycle of the mix: %d bytes allocated for %d bytes of bodies (%.2f per byte)", allocated, served, ratio)
	if ratio > mixAllocBytesPerBodyByte {
		t.Errorf("one cycle of the mix allocated %.2f bytes per body byte, budget %.1f", ratio, mixAllocBytesPerBodyByte)
	}
}
