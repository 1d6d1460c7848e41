package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// TestSyncReplicationCRC is the replication invariant differential: shipping
// on commit leaves each follower's durable image byte-identical to its
// primary's at every commit boundary.  Checked after construction
// (bootstrap) and after every single-op batch, across corpora and shard
// counts; under -race this also exercises ship-on-drain concurrency.
func TestSyncReplicationCRC(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		files, tokens, vocab int
	}{
		{"small", 51, 4, 200, 30},
		{"manyfiles", 52, 9, 120, 40},
		{"redundant", 53, 6, 300, 15},
	}
	ops := analytics.Ops()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files, d, _ := corpus(t, tc.seed, tc.files, tc.tokens, tc.vocab)
			for k := 1; k <= 4; k++ {
				gs, err := sequitur.InferShards(files, uint32(d.Len()), k)
				if err != nil {
					t.Fatalf("InferShards(k=%d): %v", k, err)
				}
				se, err := NewSharded(gs, d, Options{
					Sequences:   true,
					Persistence: OpLevel,
					Replication: Replication{Followers: 1},
				})
				if err != nil {
					t.Fatalf("NewSharded(k=%d): %v", k, err)
				}
				checkCRCs := func(when string) {
					t.Helper()
					for i := 0; i < se.NumShards(); i++ {
						fdevs := se.Followers(i)
						if len(fdevs) != 1 {
							t.Fatalf("k=%d shard %d: %d followers, want 1", k, i, len(fdevs))
						}
						// The invariant named in terms of the recovery machinery:
						// the image CloneDurable would recover from is exactly
						// the follower's.
						clone, cerr := se.Shard(i).Device().CloneDurable()
						if cerr != nil {
							t.Fatalf("k=%d shard %d: CloneDurable: %v", k, i, cerr)
						}
						pcrc, perr := clone.DurableCRC()
						fcrc, ferr := fdevs[0].DurableCRC()
						if derr := clone.Discard(); derr != nil {
							t.Fatalf("discard clone: %v", derr)
						}
						if perr != nil || ferr != nil {
							t.Fatalf("k=%d shard %d: CRC errors %v / %v", k, i, perr, ferr)
						}
						if pcrc != fcrc {
							t.Errorf("k=%d shard %d %s: follower image diverged from primary", k, i, when)
						}
					}
				}
				checkCRCs("after bootstrap")
				for _, op := range ops {
					if _, err := analytics.RunAs[any](se, op); err != nil {
						t.Fatalf("k=%d RunOp(%s): %v", k, op.Name(), err)
					}
					checkCRCs("after " + op.Name())
				}
				se.Close()
			}
		})
	}
}

// TestShardFailedTyped asserts the typed scatter-gather error: with no
// replica to fail over to, an injected device failure on one shard surfaces
// as ErrShardFailed naming that shard, with the device error in its chain.
func TestShardFailedTyped(t *testing.T) {
	files, d, _ := corpus(t, 62, 6, 200, 30)
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{Sequences: true, Persistence: OpLevel})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	const victim = 1
	dev := se.Shard(victim).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	_, err = se.RunOps(analytics.Ops())
	if err == nil {
		t.Fatal("armed shard produced no error")
	}
	var sf *ErrShardFailed
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want ErrShardFailed in chain", err)
	}
	if sf.Shard != victim {
		t.Errorf("ErrShardFailed.Shard = %d, want %d", sf.Shard, victim)
	}
	if !errors.Is(err, nvm.ErrFailPoint) {
		t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
	}

	// Disarming clears the latent failure; the engine is usable again.
	dev.DisarmFailPoints()
	if _, err := analytics.WordCount(se); err != nil {
		t.Fatalf("disarmed WordCount: %v", err)
	}
}

// TestDisarmFailPointsSharded covers the sharded path of DisarmFailPoints: a
// fail point armed on one shard and disarmed before the batch must leave no
// latent failure — the batch and a subsequent one both complete and match.
func TestDisarmFailPointsSharded(t *testing.T) {
	files, d, g := corpus(t, 63, 5, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	want, err := ref.RunOps(analytics.Ops())
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{Sequences: true, Persistence: OpLevel})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	dev := se.Shard(2).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	dev.FailAfterWrites(1)
	dev.DisarmFailPoints()
	for round := 0; round < 2; round++ {
		got, err := se.RunOps(analytics.Ops())
		if err != nil {
			t.Fatalf("round %d: disarmed shard still failed: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: result differs from unsharded", round)
		}
	}
}

// TestFailoverBitIdentical is the acceptance check: a K=4 replicated run
// with one shard's primary killed mid-batch must complete through follower
// failover and match the healthy run bit for bit on every registered op —
// and so must the next batch, served by the promoted follower.
func TestFailoverBitIdentical(t *testing.T) {
	files, d, g := corpus(t, 64, 8, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 4)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{
		Sequences:   true,
		Persistence: OpLevel,
		Replication: Replication{Followers: 1},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	dev := se.Shard(2).Device()
	dev.FailFromPersistEvent(dev.PersistEvents() + 3)
	for round := 0; round < 2; round++ {
		got, err := se.RunOps(ops)
		if err != nil {
			t.Fatalf("round %d: failover did not mask the failure: %v", round, err)
		}
		for i, op := range ops {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d op %s: result differs from healthy run", round, op.Name())
			}
		}
	}
	if se.FailoverCount() == 0 {
		t.Error("no failover performed despite the armed primary")
	}
}

// TestFailoverReseedsFollowers walks one shard through its whole replica
// set.  With two followers, the first failover promotes one and re-seeds the
// other from the recovered primary, which must then track the new primary
// byte for byte; the second failover promotes the re-seeded follower; the
// third finds no replica left and fails typed.
func TestFailoverReseedsFollowers(t *testing.T) {
	files, d, g := corpus(t, 67, 6, 200, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{
		Sequences:   true,
		Persistence: OpLevel,
		Replication: Replication{Followers: 2},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	const victim = 1
	// kill arms the shard's current primary to die a few persistence events
	// into the next batch.
	kill := func() {
		dev := se.Shard(victim).Device()
		dev.FailFromPersistEvent(dev.PersistEvents() + 3)
	}
	run := func(what string, failovers int) {
		t.Helper()
		got, err := se.RunOps(ops)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, op := range ops {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s op %s: result differs from healthy run", what, op.Name())
			}
		}
		if n := se.FailoverCount(); n != failovers {
			t.Fatalf("%s: %d failovers, want %d", what, n, failovers)
		}
	}

	kill()
	run("first failover", 1)
	run("batch after the first failover", 1)
	fdevs := se.Followers(victim)
	if len(fdevs) != 1 {
		t.Fatalf("%d live followers after the first failover, want the re-seeded one", len(fdevs))
	}
	pcrc, perr := se.Shard(victim).Device().DurableCRC()
	fcrc, ferr := fdevs[0].DurableCRC()
	if perr != nil || ferr != nil {
		t.Fatalf("CRC errors %v / %v", perr, ferr)
	}
	if pcrc != fcrc {
		t.Error("re-seeded follower's image diverged from the new primary's")
	}

	kill()
	run("second failover", 2)
	if n := len(se.Followers(victim)); n != 0 {
		t.Fatalf("%d live followers after the second failover, want 0", n)
	}

	kill()
	_, err = se.RunOps(ops)
	var sf *ErrShardFailed
	if !errors.As(err, &sf) || sf.Shard != victim {
		t.Fatalf("third kill: err = %v, want ErrShardFailed{Shard: %d}", err, victim)
	}
	if !errors.Is(err, nvm.ErrFailPoint) {
		t.Errorf("third kill: err = %v, want nvm.ErrFailPoint in chain", err)
	}
}

// TestFailoverRejectsForeignFollower promotes a follower whose image is
// stamped for another shard: the failover must refuse it with
// ErrShardMismatch, exactly as ReopenSharded would, and give its device
// back — once promoted it belongs to no replicator, so nothing else would.
func TestFailoverRejectsForeignFollower(t *testing.T) {
	files, d, _ := corpus(t, 68, 4, 200, 25)
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	opts := Options{Sequences: true, Persistence: OpLevel}
	// Equal-sized pools, so shard 0's image fits shard 1's follower exactly.
	var size int64
	for _, g := range gs {
		n, err := PoolEstimate(g, opts)
		if err != nil {
			t.Fatalf("PoolEstimate: %v", err)
		}
		size = max(size, n)
	}
	before := nvm.MappedBytes()
	o := opts
	o.ShardDevices = []*nvm.SimDevice{nvm.New(nvm.KindNVM, size), nvm.New(nvm.KindNVM, size)}
	o.Replication = Replication{Followers: 1}
	se, err := NewSharded(gs, d, o)
	if err != nil {
		for _, dev := range o.ShardDevices {
			dev.Discard()
		}
		t.Fatalf("NewSharded: %v", err)
	}
	img := make([]byte, size)
	if err := se.Shard(0).Device().ReadDurable(img); err != nil {
		t.Fatalf("ReadDurable: %v", err)
	}
	if err := installImage(se.Followers(1)[0], img); err != nil {
		t.Fatalf("install shard 0's image on shard 1's follower: %v", err)
	}
	// Die at the batch's first persistence event, before any commit could
	// ship over the foreign image.
	dev := se.Shard(1).Device()
	dev.FailFromPersistEvent(dev.PersistEvents())
	_, err = se.RunOps(analytics.Ops())
	var sf *ErrShardFailed
	if !errors.As(err, &sf) || sf.Shard != 1 {
		t.Fatalf("err = %v, want ErrShardFailed{Shard: 1}", err)
	}
	if !errors.Is(err, ErrShardMismatch) {
		t.Errorf("err = %v, want ErrShardMismatch in chain", err)
	}
	if !errors.Is(err, nvm.ErrFailPoint) {
		t.Errorf("err = %v, want nvm.ErrFailPoint in chain", err)
	}
	if n := se.FailoverCount(); n != 0 {
		t.Errorf("%d failovers counted for a rejected follower", n)
	}
	se.Close()
	if leaked := nvm.MappedBytes() - before; leaked != 0 {
		t.Errorf("%d bytes of device images still mapped after Close", leaked)
	}
}

// TestReplicaReads checks the stretch path: with replica reads enabled a
// multi-op batch splits each shard between primary and follower image, stays
// bit-identical, and reports per-lane tails for the tail-latency figure.
func TestReplicaReads(t *testing.T) {
	files, d, g := corpus(t, 65, 6, 250, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 3)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{
		Sequences:   true,
		Persistence: OpLevel,
		Replication: Replication{Followers: 1, ReplicaReads: true},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer se.Close()
	got, err := se.RunOps(ops)
	if err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	for i, op := range ops {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("op %s: replica-read result differs from unsharded", op.Name())
		}
	}
	tails := se.LastLaneTails()
	if len(tails) == 0 {
		t.Fatal("no lane tails recorded")
	}
	for l, tail := range tails {
		if tail <= 0 {
			t.Errorf("lane %d tail = %d, want > 0", l, tail)
		}
	}
	if se.FailoverCount() != 0 {
		t.Errorf("replica reads performed %d failovers on a healthy run", se.FailoverCount())
	}
	if span := se.LastTraversalSpan(); span.Total() <= 0 {
		t.Error("traversal span not measured under replica reads")
	}
}

// TestReplicaReadsRejectForeignFollower gives shard 1 a follower stamped for
// shard 0: its read replica must fail the shard-image reopen contract, so
// shard 1 reads from its primary alone and the batch stays bit-identical,
// while shard 0 still gets its replica.  The rejected clone is given back.
func TestReplicaReadsRejectForeignFollower(t *testing.T) {
	files, d, g := corpus(t, 69, 4, 200, 25)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	opts := Options{Sequences: true, Persistence: OpLevel}
	// Equal-sized pools, so shard 0's image fits shard 1's follower exactly.
	var size int64
	for _, g := range gs {
		n, err := PoolEstimate(g, opts)
		if err != nil {
			t.Fatalf("PoolEstimate: %v", err)
		}
		size = max(size, n)
	}
	before := nvm.MappedBytes()
	o := opts
	o.ShardDevices = []*nvm.SimDevice{nvm.New(nvm.KindNVM, size), nvm.New(nvm.KindNVM, size)}
	o.Replication = Replication{Followers: 1, ReplicaReads: true}
	se, err := NewSharded(gs, d, o)
	if err != nil {
		for _, dev := range o.ShardDevices {
			dev.Discard()
		}
		t.Fatalf("NewSharded: %v", err)
	}
	img := make([]byte, size)
	if err := se.Shard(0).Device().ReadDurable(img); err != nil {
		t.Fatalf("ReadDurable: %v", err)
	}
	if err := installImage(se.Followers(1)[0], img); err != nil {
		t.Fatalf("install shard 0's image on shard 1's follower: %v", err)
	}
	if se.ensureReplica(0) == nil {
		t.Fatal("shard 0: no read replica over its own follower")
	}
	if se.ensureReplica(1) != nil {
		t.Fatal("shard 1: read replica opened over a follower stamped for shard 0")
	}
	got, err := se.RunOps(ops)
	if err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	for i, op := range ops {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("op %s: result differs from unsharded", op.Name())
		}
	}
	if n := se.FailoverCount(); n != 0 {
		t.Errorf("%d failovers on a healthy run", n)
	}
	se.Close()
	if leaked := nvm.MappedBytes() - before; leaked != 0 {
		t.Errorf("%d bytes of device images still mapped after Close", leaked)
	}
}

// TestReopenShardedFailover recovers a sharded engine whose primary device
// set is partially unusable: the dead shard's pool comes back from its
// injected follower, under the same stamp validation.
func TestReopenShardedFailover(t *testing.T) {
	files, d, _ := corpus(t, 66, 4, 200, 25)
	gs, err := sequitur.InferShards(files, uint32(d.Len()), 2)
	if err != nil {
		t.Fatalf("InferShards: %v", err)
	}
	se, err := NewSharded(gs, d, Options{
		Sequences:   true,
		Persistence: OpLevel,
		Replication: Replication{Followers: 1},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	want, err := analytics.WordCount(se)
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	// Clone the surviving images before Close discards the originals: shard
	// 0's primary, shard 1's follower.  Shard 1's primary is replaced by a
	// blank device — a total loss its follower must cover.
	pc0, err := se.Shard(0).Device().CloneDurable()
	if err != nil {
		t.Fatalf("clone primary 0: %v", err)
	}
	fc1, err := se.Followers(1)[0].CloneDurable()
	if err != nil {
		t.Fatalf("clone follower 1: %v", err)
	}
	blankSize := se.Shard(1).Device().Size()
	se.Close()
	blank := nvm.New(nvm.KindNVM, blankSize)
	opts := Options{Sequences: true, Persistence: OpLevel}

	// Without a follower the dead shard is typed and reloadable.
	_, _, err = ReopenSharded([]*nvm.SimDevice{pc0, blank}, d, opts)
	var sf *ErrShardFailed
	if !errors.As(err, &sf) || sf.Shard != 1 {
		t.Fatalf("blank shard err = %v, want ErrShardFailed{Shard: 1}", err)
	}
	if !errors.Is(err, ErrNeedsReload) {
		t.Fatalf("blank shard err = %v, want ErrNeedsReload in chain", err)
	}

	// With the follower injected, the reopen promotes it transparently.
	ro := opts
	ro.Replication = Replication{FollowerDevices: [][]*nvm.SimDevice{nil, {fc1}}}
	re, infos, err := ReopenSharded([]*nvm.SimDevice{pc0, blank}, d, ro)
	if err != nil {
		t.Fatalf("ReopenSharded with follower: %v", err)
	}
	defer re.Close()
	if len(infos) != 2 {
		t.Fatalf("got %d recovery infos, want 2", len(infos))
	}
	got, err := analytics.WordCount(re)
	if err != nil {
		t.Fatalf("recovered WordCount: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("failover-recovered word count differs from the healthy run")
	}
}
