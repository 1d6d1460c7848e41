package crashcheck

import (
	"testing"

	"github.com/text-analytics/ntadoc/internal/core"
)

// TestFailoverSampled is the replication/failover gate that rides in the
// normal test run: a seeded sample of the primary-dies / follower-torn
// matrix over a 3-way replicated engine, under both §IV-E
// persistence strategies.  make failovercheck runs a denser matrix over more
// shard counts.
func TestFailoverSampled(t *testing.T) {
	points := 4
	if testing.Short() {
		points = 2
	}
	for _, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			rep, err := RunFailover(Config{
				Persistence: p,
				Points:      points,
				Subsets:     2,
				Seed:        42,
				Files:       6,
				TokensPer:   120,
				Vocab:       40,
				CorpusSeed:  7,
			}, 3)
			if err != nil {
				t.Fatalf("RunFailover: %v", err)
			}
			if rep.TotalEvents == 0 {
				t.Fatal("golden replicated run recorded no persistence events")
			}
			if len(rep.Points) == 0 {
				t.Fatal("no failover points explored")
			}
			shardsSeen := map[int]bool{}
			for _, pt := range rep.Points {
				shardsSeen[pt.Shard] = true
				for _, o := range pt.Outcomes {
					for _, v := range o.Violations {
						t.Errorf("shard %d event %d scenario %s: %s", pt.Shard, pt.Event, o.Subset, v)
					}
				}
			}
			if len(shardsSeen) != 3 {
				t.Errorf("explored shards %v, want all of 3", shardsSeen)
			}
		})
	}
}

// TestFailoverSeqCount spot-checks the sequence-analytics path through
// failover: promoting a follower must reattach the head/tail structures and
// sequence dictionary exactly as plain recovery does.
func TestFailoverSeqCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sequence failover exploration skipped in -short")
	}
	rep, err := RunFailover(Config{
		Task:        "seqcount",
		Persistence: core.OpLevel,
		Points:      3,
		Subsets:     2,
		Seed:        11,
		Files:       6,
		TokensPer:   120,
		Vocab:       40,
		CorpusSeed:  9,
	}, 2)
	if err != nil {
		t.Fatalf("RunFailover: %v", err)
	}
	for _, pt := range rep.Points {
		for _, o := range pt.Outcomes {
			for _, v := range o.Violations {
				t.Errorf("shard %d event %d scenario %s: %s", pt.Shard, pt.Event, o.Subset, v)
			}
		}
	}
}
