// Package core implements N-TADOC, the paper's contribution: text analytics
// directly on TADOC-compressed data resident on NVM.  The engine realizes
// the four design pillars of §IV:
//
//   - the pruning method with NVM pool management (Algorithm 1): rule bodies
//     are trimmed to (id, frequency) pairs — subrules first, then words —
//     and laid out contiguously in traversal order in the DAG pool;
//   - bottom-up summation (Algorithm 2): every variable-length structure is
//     allocated once at its upper bound, so nothing is ever reconstructed on
//     NVM;
//   - the NVM-adapted data structures of §IV-D (pool hash tables with
//     status/key/value buffers, pool vectors, the traversal queue, and the
//     per-rule n-gram tables and per-file root runs of sequence analytics);
//   - the two persistence strategies of §IV-E: phase-level (flush +
//     checkpoint at phase boundaries) and operation-level (a logical redo
//     log entry per counter mutation, with crash recovery by replay).
//
// The ablation switches (NoPruning, NoBounds, Scatter) reconstruct the
// naive "overload the allocator and point it at NVM" port the paper
// measures at 13.37x overhead in §III-B, and serve the design-choice
// ablation benchmarks.
package core

import (
	"errors"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Strategy selects the traversal direction for per-file tasks (§VI-E).
type Strategy int

// Traversal strategies.
const (
	// Auto lets the cost-based planner pick the direction from the grammar
	// shape (files, rules, body symbols, bottom-up merge work) and the
	// metrics cost model; see chooseStrategy in planner.go.
	Auto Strategy = iota
	// TopDown propagates weights from the root, traversing the DAG per
	// file: efficient for few files, catastrophic for many (§VI-E).
	TopDown
	// BottomUp materializes per-rule word lists once and merges them at
	// each file's top level: efficient for many files.
	BottomUp
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case TopDown:
		return "top-down"
	case BottomUp:
		return "bottom-up"
	default:
		return "auto"
	}
}

// Persistence selects the §IV-E persistence strategy.
type Persistence int

// Persistence levels.
const (
	// PhaseLevel flushes the pool and writes a checkpoint at the end of
	// each phase (the libpmem strategy): cheap, recovery restarts the
	// interrupted phase.
	PhaseLevel Persistence = iota
	// OpLevel additionally logs every counter mutation to a redo log with
	// an immediate flush (the libpmemobj strategy): write-amplified but
	// recoverable to the last operation.
	OpLevel
)

// String names the persistence level.
func (p Persistence) String() string {
	if p == OpLevel {
		return "operation-level"
	}
	return "phase-level"
}

// Workflow phases recorded in pool checkpoints.
const (
	phaseNone      = 0
	phaseInit      = 1
	phaseTraversal = 2
)

// CounterKind selects the §IV-D result-structure family.
type CounterKind int

// Counter kinds.
const (
	// CounterAuto picks per structure: the dense vector counter when its
	// flat array would be no larger than the equivalent hash table (dense
	// key spaces like dictionary IDs), the hash table otherwise.
	CounterAuto CounterKind = iota
	// CounterHash forces hash tables everywhere.
	CounterHash
	// CounterDense forces dense vector counters wherever the key space is
	// known (falling back to hash tables elsewhere).
	CounterDense
)

// String names the counter kind.
func (c CounterKind) String() string {
	switch c {
	case CounterHash:
		return "hash"
	case CounterDense:
		return "dense"
	default:
		return "auto"
	}
}

// Options configures an N-TADOC engine.
type Options struct {
	// Kind is the simulated medium for the DAG pool (default KindNVM; the
	// Fig 7 comparison runs the same engine on KindSSD/KindHDD).
	Kind nvm.Kind
	// Model overrides the medium's default cost model when non-nil.
	Model *nvm.CostModel
	// Path makes the pool file-backed for real cross-process durability.
	Path string
	// Device, when non-nil, is used as the pool device instead of creating
	// one (Path is then ignored).  It must be at least PoolEstimate bytes.
	// The crash-exploration harness injects pre-armed devices this way; the
	// engine takes ownership (Close discards it).
	Device *nvm.SimDevice
	// ShardIndex and ShardCount stamp the engine's pool with its position in
	// a shard set (both zero for a bare engine built outside one, as the
	// figure harness does).  NewSharded fills them per shard; ReopenSharded
	// validates the stamps so a device set assembled from mismatched shards
	// is rejected.
	ShardIndex uint32
	ShardCount uint32
	// BuildTag, when non-zero, is a content fingerprint of the compressed
	// input stamped into the engine's pool header (for shards of a unified
	// shared-rule container, the container's shared-table checksum; see
	// cfg.SharedSet.Checksum).  ReopenSharded rejects a device set whose
	// pools carry different tags — shards of different builds — even when
	// their positional stamps line up.
	BuildTag uint32
	// ShardDevices, when non-nil, provides one pre-created device per shard
	// to NewSharded (it must have exactly one device per shard grammar).
	// The crash-exploration harness injects pre-armed shard devices this
	// way.  On success each shard engine takes ownership of its device;
	// when construction fails the devices stay with the caller, so a crash
	// harness can still clone their durable state.
	ShardDevices []*nvm.SimDevice
	// Replication configures per-shard follower replication and failover
	// (read by NewSharded and ReopenSharded, at any shard count; see the
	// Replication type).  Zero value disables replication.
	Replication Replication
	// Persistence selects the §IV-E strategy (default PhaseLevel).
	Persistence Persistence
	// Strategy selects the traversal direction (default Auto).
	Strategy Strategy
	// Counters selects between the §IV-D hash table and vector counter
	// (default CounterAuto).
	Counters CounterKind
	// Sequences enables the sequence-analytics preprocessing during
	// initialization (per-rule n-gram tables, per-file root runs).
	// Without it, SequenceCount and RankedInvertedIndex return an error —
	// and initialization is much cheaper, matching the per-task init times
	// of Table II.
	Sequences bool

	// Ablation switches; all false in the real system.

	// NoPruning stores raw, untrimmed rule bodies (challenge 1 baseline).
	NoPruning bool
	// NoBounds replaces upper-bound-sized tables with growable ones that
	// reconstruct when full (challenge 2 baseline).
	NoBounds bool
	// Scatter allocates rule bodies in shuffled order with random padding,
	// destroying the pool's locality (the naive-port layout).
	Scatter bool

	// IngestCap reserves this many bytes of pool space for the durable
	// append log, making the shard appendable (0 disables ingestion; the
	// figure harnesses leave it 0 so modeled pool layouts are unchanged).
	// The log is monotonic: once the region fills, Append returns
	// ErrIngestFull until the corpus is recompressed.
	IngestCap int64
	// PoolSlack is the extra pool capacity fraction beyond the estimate
	// (default 0.5; NoBounds runs need headroom for reconstruction).
	PoolSlack float64
	// OpLogCap is the operation-level redo-log capacity (default 256 KiB;
	// the log compacts when full, flushing the live tables).
	OpLogCap int64
	// PerOpCommit fences the redo log after every single counter mutation
	// instead of after each analytics operation — the behaviour of the
	// naive PMDK port of §III-B, where every structure mutation is its own
	// transaction.  Only meaningful with Persistence == OpLevel.
	PerOpCommit bool
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.PoolSlack == 0 {
		o.PoolSlack = 0.5
	}
	if o.OpLogCap == 0 {
		o.OpLogCap = 256 << 10
	}
	return o
}

// Engine errors.
var (
	// ErrNeedsReload reports recovery finding a pool whose initialization
	// never completed: the engine must be rebuilt from the compressed
	// input.
	ErrNeedsReload = errors.New("core: initialization incomplete; reload from compressed input")
	// ErrNoSequences reports a sequence task on an engine initialized
	// without sequence preprocessing.
	ErrNoSequences = errors.New("core: engine initialized without sequence support")
	// ErrNoIngest reports an Append on an engine built without an ingest
	// region (Options.IngestCap == 0).
	ErrNoIngest = errors.New("core: engine built without ingestion support (IngestCap == 0)")
	// ErrIngestFull reports an Append that does not fit the remaining
	// append-log capacity.  The corpus must be recompressed (or the engine
	// rebuilt with a larger IngestCap).
	ErrIngestFull = errors.New("core: append log full; recompress the corpus")
	// ErrCompacting reports an Append rejected because a compaction swap is
	// in progress; the caller should retry shortly (the server maps this to
	// 503).
	ErrCompacting = errors.New("core: compaction in progress; retry append")
	// ErrNoBaseGrammar reports a Compact on an engine that no longer holds
	// its base grammar in DRAM (engines recovered with Reopen): queries and
	// appends still work, but re-merging requires the compressed input.
	ErrNoBaseGrammar = errors.New("core: base grammar unavailable (recovered engine); compaction needs the compressed input")
)
