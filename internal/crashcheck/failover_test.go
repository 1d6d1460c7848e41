package crashcheck

import (
	"fmt"
	"strings"
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
			rep, err := Run(Config{
				Scenario:    Failover,
				Shards:      3,
				Persistence: p,
				Points:      points,
				Subsets:     2,
				Seed:        42,
				Files:       6,
				TokensPer:   120,
				Vocab:       40,
				CorpusSeed:  7,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
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
// failover: promoting a follower must reattach the n-gram tables, root runs
// and sequence dictionary exactly as plain recovery does.
func TestFailoverSeqCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sequence failover exploration skipped in -short")
	}
	rep, err := Run(Config{
		Scenario:    Failover,
		Shards:      2,
		Task:        "seqcount",
		Persistence: core.OpLevel,
		Points:      3,
		Subsets:     2,
		Seed:        11,
		Files:       6,
		TokensPer:   120,
		Vocab:       40,
		CorpusSeed:  9,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pt := range rep.Points {
		for _, o := range pt.Outcomes {
			for _, v := range o.Violations {
				t.Errorf("shard %d event %d scenario %s: %s", pt.Shard, pt.Event, o.Subset, v)
			}
		}
	}
}

// TestFailoverExploresEveryFollowerEvent runs the phase-level matrix
// exhaustively.  A follower logs more persistence events than its primary's
// workload phase (the bootstrap snapshot plus every shipped commit), so the
// follower-torn runs must outnumber the primary-dies runs and cover every
// follower event, not stop at the primary's count.
func TestFailoverExploresEveryFollowerEvent(t *testing.T) {
	rep, err := Run(Config{
		Scenario:    Failover,
		Shards:      2,
		Persistence: core.PhaseLevel,
		Subsets:     1,
		Seed:        42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	expectClean(t, rep)
	primary := map[int]int{}
	follower := map[int][]string{}
	for _, pt := range rep.Points {
		for _, o := range pt.Outcomes {
			switch {
			case o.Subset == "primary-dies":
				primary[pt.Shard]++
			case strings.HasPrefix(o.Subset, "follower-torn@"):
				follower[pt.Shard] = append(follower[pt.Shard], o.Subset)
			}
		}
	}
	for s := 0; s < 2; s++ {
		got := follower[s]
		if len(got) <= primary[s] {
			t.Errorf("shard %d: %d follower-torn runs, want more than its %d primary-dies runs",
				s, len(got), primary[s])
		}
		for ev, name := range got {
			if want := fmt.Sprintf("follower-torn@%d", ev); name != want {
				t.Errorf("shard %d: follower run %d is %s, want %s", s, ev, name, want)
			}
		}
	}
}
