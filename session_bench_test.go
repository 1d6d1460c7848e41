package ntadoc

import (
	"context"
	"fmt"
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
// benchstat; allocs/op is the workspace's figure of merit.
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
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body, err := sess.RunSpecJSON(ctx, spec)
						if err != nil {
							b.Fatal(err)
						}
						b.SetBytes(int64(len(body)))
					}
					b.ReportMetric(float64(sess.WorkspaceBytes()), "workspace-B")
				})
			}
		})
	}
}
