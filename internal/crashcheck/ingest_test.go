package crashcheck

import (
	"testing"

	"github.com/text-analytics/ntadoc/internal/core"
)

// TestIngestCrashPoints is the ingestion crash-consistency gate: a seeded
// sample of the append-stream persistence schedule under both §IV-E
// strategies.  Every recovery must land on a batch boundary, keep every
// acknowledged append, serve the exact prefix reference, and stay
// appendable.  make ingestcheck runs the same corpus exhaustively.
func TestIngestCrashPoints(t *testing.T) {
	points := 14
	if testing.Short() {
		points = 6
	}
	for _, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			rep, err := Run(Config{
				Scenario:    Ingest,
				Persistence: p,
				Points:      points,
				Seed:        42,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.TotalEvents == 0 {
				t.Fatal("golden run recorded no persistence events")
			}
			if len(rep.Points) == 0 {
				t.Fatal("no crash points explored")
			}
			for _, pt := range rep.Points {
				for _, o := range pt.Outcomes {
					for _, v := range o.Violations {
						t.Errorf("event %d subset %s: %s", pt.Event, o.Subset, v)
					}
				}
			}
		})
	}
}

// TestIngestSeqCountCrashPoints spot-checks the sequence path: appends
// extend the sequence dictionary and n-gram tables, and recovery must
// replay them to the exact prefix.
func TestIngestSeqCountCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sequence ingest exploration skipped in -short")
	}
	rep, err := Run(Config{
		Scenario:    Ingest,
		Task:        "seqcount",
		Persistence: core.OpLevel,
		Points:      6,
		Subsets:     2,
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pt := range rep.Points {
		for _, o := range pt.Outcomes {
			for _, v := range o.Violations {
				t.Errorf("event %d subset %s: %s", pt.Event, o.Subset, v)
			}
		}
	}
}
