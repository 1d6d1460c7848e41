package crashcheck

import (
	"testing"

	"github.com/text-analytics/ntadoc/internal/core"
)

// expectClean fails the test for every violation in rep.
func expectClean(t *testing.T, rep *Report) {
	t.Helper()
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
}

// TestSampledCrashPoints is the crash-consistency gate that rides in the
// normal test run: a seeded ~20-point sample (8 under -short) of the
// WordCount persistence schedule, under both §IV-E strategies, with the two
// extreme subsets plus three seeded torn subsets per point.  make crashcheck
// runs the same corpus exhaustively.
func TestSampledCrashPoints(t *testing.T) {
	points := 20
	if testing.Short() {
		points = 8
	}
	for _, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			rep, err := Run(Config{
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
			expectClean(t, rep)
		})
	}
}

// TestSeqCountCrashPoints spot-checks the sequence-analytics path, whose
// recovery reattaches the n-gram tables, root runs and sequence dictionary.
func TestSeqCountCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sequence exploration skipped in -short")
	}
	rep, err := Run(Config{
		Task:        "seqcount",
		Persistence: core.OpLevel,
		Points:      8,
		Subsets:     2,
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	expectClean(t, rep)
}

// TestShardedCrashPoints explores the sharded engine: for each point one
// shard's device fails mid-stream while the others drain, and recovery must
// hold per shard — with the merged per-shard results matching the global
// reference bit for bit.
func TestShardedCrashPoints(t *testing.T) {
	points := 6
	if testing.Short() {
		points = 3
	}
	for _, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
		t.Run(p.String(), func(t *testing.T) {
			rep, err := Run(Config{
				Shards:      2,
				Persistence: p,
				Points:      points,
				Subsets:     2,
				Seed:        17,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.TotalEvents == 0 {
				t.Fatal("golden sharded run recorded no persistence events")
			}
			if len(rep.Points) == 0 {
				t.Fatal("no crash points explored")
			}
			shardsSeen := map[int]bool{}
			for _, pt := range rep.Points {
				shardsSeen[pt.Shard] = true
				for _, o := range pt.Outcomes {
					for _, v := range o.Violations {
						t.Errorf("shard %d event %d subset %s: %s", pt.Shard, pt.Event, o.Subset, v)
					}
				}
			}
			if len(shardsSeen) != 2 {
				t.Errorf("explored shards %v, want both of 2", shardsSeen)
			}
		})
	}
}

// TestShardedSeqCountCrashPoints spot-checks sequence analytics across a
// sharded crash: per-shard results are Seq-keyed, so the merge must not need
// the (dead) shard-local sequence dictionaries.
func TestShardedSeqCountCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sequence exploration skipped in -short")
	}
	rep, err := Run(Config{
		Shards:      3,
		Task:        "seqcount",
		Persistence: core.OpLevel,
		Points:      4,
		Subsets:     2,
		Seed:        29,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pt := range rep.Points {
		for _, o := range pt.Outcomes {
			for _, v := range o.Violations {
				t.Errorf("shard %d event %d subset %s: %s", pt.Shard, pt.Event, o.Subset, v)
			}
		}
	}
}

// smallLog is an operation log the recorded corpus fills several times per
// run (3 compactions for word count, 5 for sequence count; the per-file
// inverted index logs nothing), so compaction is inside the explored events.
const smallLog = 128

// TestSmallLogCrashPoints samples the schedule of a log that compacts inside
// the run: frames sealed, dropped and re-based around each compaction's table
// flush.  make crashcheck runs the same passes exhaustively.
func TestSmallLogCrashPoints(t *testing.T) {
	points := 24
	if testing.Short() {
		points = 8
	}
	for _, task := range []string{"wordcount", "seqcount"} {
		t.Run(task, func(t *testing.T) {
			rep, err := Run(Config{
				Task: task, Persistence: core.OpLevel, OpLogCap: smallLog,
				Points: points, Subsets: 2, Seed: 5,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			expectClean(t, rep)
		})
	}
}

// TestPerFileCrashPoints samples the per-file traversals — scratch tables
// reused per file top-down, per rule and per file bottom-up — which commit no
// result table: recovery must not panic, must recover or ask for a reload,
// and the recovered engine must re-run the task exactly.
func TestPerFileCrashPoints(t *testing.T) { perFileCrashPoints(t, "invertedindex") }

// TestFusedCrashPoints samples the per-file scratch fused with word count,
// whose logged, compacted and committed table sits under it: the committed
// counts must come back exact as well.
func TestFusedCrashPoints(t *testing.T) { perFileCrashPoints(t, fusedTask) }

func perFileCrashPoints(t *testing.T, task string) {
	points := 16
	if testing.Short() {
		points = 6
	}
	for _, strat := range []core.Strategy{core.TopDown, core.BottomUp} {
		for _, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
			t.Run(strat.String()+"/"+p.String(), func(t *testing.T) {
				rep, err := Run(Config{
					Task: task, Strategy: strat, Persistence: p, OpLogCap: smallLog,
					Points: points, Subsets: 2, Seed: 23,
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				expectClean(t, rep)
			})
		}
	}
}

// TestBrokenRecoveryIsCaught proves the harness has teeth: with the epoch
// guards in opLog.frames disabled, frames superseded by the final checkpoint
// are double-replayed onto the committed table, and the harness must flag it.
// The exploration always includes the final crash point (the completed run),
// which is exactly where the guard matters.  The log is small: a log that
// never compacted still opens with the table's allocation entry, so a stale
// replay of it re-creates the table and lands on the right counts by
// accident; after a compaction the stale frames are bare updates.
func TestBrokenRecoveryIsCaught(t *testing.T) {
	core.DebugSkipLogEpochCheck = true
	defer func() { core.DebugSkipLogEpochCheck = false }()
	rep, err := Run(Config{
		Persistence: core.OpLevel,
		OpLogCap:    smallLog,
		Points:      3,
		Subsets:     1,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Violations == 0 {
		t.Fatal("harness missed the double-replay bug injected via DebugSkipLogEpochCheck")
	}
}

// TestStageAfterCompactionIsCaught is the second negative: a frame that did
// not fit is written into the fresh epoch after the compaction whose table
// flush already made its effects durable, so a crash later in that epoch
// replays them a second time.  Only a run that compacts can show it, and the
// exhaustive exploration of one must.
func TestStageAfterCompactionIsCaught(t *testing.T) {
	core.DebugStageSurvivesCompaction = true
	defer func() { core.DebugStageSurvivesCompaction = false }()
	rep, err := Run(Config{
		Persistence: core.OpLevel,
		OpLogCap:    smallLog,
		Subsets:     1,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Violations == 0 {
		t.Fatal("harness missed the double-apply bug injected via DebugStageSurvivesCompaction")
	}
}

// TestPinnedEventSpaces pins the golden persistence-event totals of every
// make crashcheck, failovercheck and ingestcheck pass, phase-level then
// operation-level.  A change that builds through a path persisting less
// would otherwise shrink the explored matrices silently.  One sampled point
// per shard keeps it cheap.
func TestPinnedEventSpaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want [2]int64 // phase-level, operation-level
	}{
		{"crashcheck/wordcount", Config{}, [2]int64{12, 58}},
		{"crashcheck/wordcount/log128", Config{OpLogCap: smallLog}, [2]int64{12, 72}},
		// 76, not 80, since the root's windows are stored runs: one add per
		// distinct window of a file instead of one per occurrence, so the
		// 128-byte log fills, and compacts, fewer times.
		{"crashcheck/seqcount", Config{Task: "seqcount", OpLogCap: smallLog}, [2]int64{12, 76}},
		{"crashcheck/invertedindex/top-down",
			Config{Task: "invertedindex", Strategy: core.TopDown, OpLogCap: smallLog}, [2]int64{12, 18}},
		{"crashcheck/invertedindex/bottom-up",
			Config{Task: "invertedindex", Strategy: core.BottomUp, OpLogCap: smallLog}, [2]int64{12, 18}},
		{"crashcheck/fused", Config{Task: fusedTask, OpLogCap: smallLog}, [2]int64{12, 72}},
		{"failovercheck", Config{Scenario: Failover, Shards: 3, Files: 6}, [2]int64{36, 234}},
		{"ingestcheck", Config{Scenario: Ingest, Files: 4}, [2]int64{38, 40}},
	} {
		for i, p := range []core.Persistence{core.PhaseLevel, core.OpLevel} {
			t.Run(tc.name+"/"+p.String(), func(t *testing.T) {
				c := tc.cfg
				c.Persistence, c.Points, c.Seed = p, 1, 42
				rep, err := Run(c)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rep.TotalEvents != tc.want[i] {
					t.Errorf("TotalEvents = %d, want %d", rep.TotalEvents, tc.want[i])
				}
				expectClean(t, rep)
			})
		}
	}
}

// TestRunRejectsShardCounts checks the shard counts a scenario cannot run.
func TestRunRejectsShardCounts(t *testing.T) {
	for _, c := range []Config{
		{Shards: -1},
		{Scenario: Failover},
		{Scenario: Failover, Shards: 1},
		{Scenario: Ingest, Shards: 2},
	} {
		if _, err := Run(c); err == nil {
			t.Errorf("Run(scenario %d, shards %d) = nil error, want a rejection", c.Scenario, c.Shards)
		}
	}
}
