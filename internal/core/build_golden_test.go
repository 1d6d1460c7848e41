package core

import (
	"fmt"
	"testing"

	"github.com/text-analytics/ntadoc/internal/datagen"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// shardBuild is what one shard's initialization leaves behind: the CRC of
// its durable pool image (the whole device, so the pool size estimate is
// pinned too), the size of its sequence dictionary and its modeled
// initialization time.
type shardBuild struct {
	crc     uint32
	seqs    int
	modeled int64
}

// TestEngineBuildGolden pins every shard's build over four shapes: the
// `cold-miss` corpus (dataset D cut to 32 documents, K = 2, resolved
// top-down), dataset B at K = 2 (resolved bottom-up, so the rules'
// cumulative sequence tables are written too) and dataset C unsharded under
// both persistence levels.  Sequence IDs fix every table's layout and the
// pool's contents, so a change to how sequences are counted or interned
// that moves one ID moves a CRC here.
func TestEngineBuildGolden(t *testing.T) {
	d32 := datagen.DatasetD
	d32.Files = 32
	cases := []struct {
		name  string
		spec  datagen.Spec
		k     int
		opts  Options
		strat Strategy
		want  []shardBuild
	}{
		{"cold-miss", d32, 2, Options{}, TopDown, []shardBuild{
			{0x8961e0d9, 32634, 10146662}, {0x3efb739e, 31363, 10322444}}},
		{"B/K=2", datagen.DatasetB, 2, Options{}, BottomUp, []shardBuild{
			{0x5ff6af5e, 8029, 8090609}, {0x138052e3, 8091, 8833663}}},
		{"C/phase", datagen.DatasetC, 1, Options{Persistence: PhaseLevel}, TopDown, []shardBuild{
			{0x11adef19, 37345, 10340784}}},
		{"C/oplevel", datagen.DatasetC, 1, Options{Persistence: OpLevel}, TopDown, []shardBuild{
			{0x8a0b9fe0, 37345, 10494690}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			files, d := c.spec.GenerateWithDict()
			sb, err := sequitur.InferShardsShared(files, uint32(d.Len()), c.k)
			if err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.Sequences, opts.BuildTag = true, sb.Set.Checksum()
			se, err := NewSharded(sb.Shards, d, opts)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			defer se.Close()
			var got []shardBuild
			for i := range sb.Shards {
				e := se.Shard(i)
				if s := e.Strategy(); s != c.strat {
					t.Fatalf("shard %d resolved %v, want %v", i, s, c.strat)
				}
				crc, err := e.Device().DurableCRC()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, shardBuild{crc, len(e.seqList), e.InitSpan().Total().Nanoseconds()})
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("shard builds %#v, want %#v", got, c.want)
			}
		})
	}
}
