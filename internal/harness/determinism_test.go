package harness

import (
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/datagen"
)

// TestSerialRerunsDeterministic requires repeated serial runs of the same
// cell to produce identical modeled results: device layouts and charges must
// not inherit Go map iteration order anywhere in the init or traversal
// paths.  This is the single-run half of the concurrent-vs-serial guarantee.
func TestSerialRerunsDeterministic(t *testing.T) {
	c, err := GetCorpus(datagen.DatasetA.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunNTADOC(c, analytics.TaskSequenceCount, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r2, err := RunNTADOC(c, analytics.TaskSequenceCount, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if deterministicFields(r1) != deterministicFields(r2) {
			t.Fatalf("run %d: serial reruns diverge\nfirst: %+v\nrerun: %+v",
				i, deterministicFields(r1).Device, deterministicFields(r2).Device)
		}
	}
}
