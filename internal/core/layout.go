package core

import (
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Pool root slots.  Slots hold either offsets of pool regions or small
// scalar values; all are made durable by the initialization checkpoint, and
// the pool header's CRC seals every one of them.
const (
	rootMeta      = 0  // rule metadata array offset
	rootNumRules  = 1  // rule count
	rootRootBody  = 2  // ordered root-rule body offset
	rootTopo      = 3  // topological order array offset
	rootSeqDict   = 4  // sequence dictionary offset (0 when disabled)
	rootRuns      = 5  // per-file root-run offset array offset (0 when disabled)
	rootNumWords  = 6  // vocabulary size
	rootNumFiles  = 7  // file count
	rootOpLog     = 8  // operation-level log region offset (0 when disabled)
	rootResult    = 9  // result table offset of the last committed traversal
	rootInitTop   = 10 // pool watermark at the end of initialization
	rootTaskID    = 11 // task of the last committed traversal
	rootSeqLocal  = 12 // per-rule local-window table offset array (0 when disabled)
	rootDistinct  = 13 // distinct word IDs across all rule bodies
	rootBodySyms  = 14 // total rule-body symbols (a traversal-planner input)
	rootMergeWork = 15 // bottom-up list-merge entries (a traversal-planner input)
	rootIngest    = 16 // append-log region offset (0 when ingestion is disabled)
	rootShard     = 17 // shard stamp: index | count<<32 (0 outside a shard set)
	rootBuildTag  = 18 // build tag (Options.BuildTag)
)

// Rule metadata record layout (§IV-B: "the position of subrules and words,
// the out/in degree, word list size, and the weight of the rule"), plus the
// fields the other designs need.  64 bytes per rule, arrayed contiguously so
// a traversal touching neighbouring rules shares media granules.
const (
	metaBodyOff   = 0  // u64: pruned (or raw) body offset
	metaSubCount  = 8  // u32: (subrule,freq) pairs, or raw symbol count
	metaWordCount = 12 // u32: (word,freq) pairs (0 in raw mode)
	metaInDeg     = 16 // u32: DAG in-degree (with multiplicity)
	metaOutDeg    = 20 // u32: DAG out-degree (with multiplicity)
	metaWeight    = 24 // u64: mutable weight slot for traversal
	metaBound     = 32 // u64: Algorithm 2 upper bound
	metaExpLen    = 40 // u64: expansion length in tokens
	metaSeqOff    = 48 // u64: per-rule sequence table offset (0 none)
	metaScratch   = 56 // u64: traversal scratch (remaining parents / table)

	metaSize = 64
)

// ruleMeta is a cursor over one rule's metadata record.
type ruleMeta struct {
	acc nvm.Accessor
}

func (e *Engine) meta(r uint32) ruleMeta {
	return ruleMeta{acc: e.metaAcc.Slice(int64(r)*metaSize, metaSize)}
}

func (m ruleMeta) bodyOff() int64    { return int64(m.acc.Uint64(metaBodyOff)) }
func (m ruleMeta) subCount() uint32  { return m.acc.Uint32(metaSubCount) }
func (m ruleMeta) wordCount() uint32 { return m.acc.Uint32(metaWordCount) }
func (m ruleMeta) inDeg() uint32     { return m.acc.Uint32(metaInDeg) }
func (m ruleMeta) outDeg() uint32    { return m.acc.Uint32(metaOutDeg) }
func (m ruleMeta) weight() uint64    { return m.acc.Uint64(metaWeight) }
func (m ruleMeta) bound() int64      { return int64(m.acc.Uint64(metaBound)) }
func (m ruleMeta) expLen() int64     { return int64(m.acc.Uint64(metaExpLen)) }
func (m ruleMeta) seqOff() int64     { return int64(m.acc.Uint64(metaSeqOff)) }
func (m ruleMeta) scratch() uint64   { return m.acc.Uint64(metaScratch) }

func (m ruleMeta) setBodyOff(v int64)    { m.acc.PutUint64(metaBodyOff, uint64(v)) }
func (m ruleMeta) setSubCount(v uint32)  { m.acc.PutUint32(metaSubCount, v) }
func (m ruleMeta) setWordCount(v uint32) { m.acc.PutUint32(metaWordCount, v) }
func (m ruleMeta) setInDeg(v uint32)     { m.acc.PutUint32(metaInDeg, v) }
func (m ruleMeta) setOutDeg(v uint32)    { m.acc.PutUint32(metaOutDeg, v) }
func (m ruleMeta) setWeight(v uint64)    { m.acc.PutUint64(metaWeight, v) }
func (m ruleMeta) setBound(v int64)      { m.acc.PutUint64(metaBound, uint64(v)) }
func (m ruleMeta) setExpLen(v int64)     { m.acc.PutUint64(metaExpLen, uint64(v)) }
func (m ruleMeta) setSeqOff(v int64)     { m.acc.PutUint64(metaSeqOff, uint64(v)) }
func (m ruleMeta) setScratch(v uint64)   { m.acc.PutUint64(metaScratch, v) }

// pair is one (id, frequency) tuple of a pruned body.
type pair struct {
	id   uint32
	freq uint32
}

// freqFollows marks a compact-encoded pair whose frequency is stored in the
// next word; frequency-1 pairs omit it.  Bit 31 is never set in a rule index
// or word ID (cfg caps both at 2^30).
const freqFollows = 1 << 31
