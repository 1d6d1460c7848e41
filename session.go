package ntadoc

import (
	"context"
	"fmt"

	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// QuerySession is a read-only query executor over an engine: it runs batches
// through the same operation kernel as the engine's task methods, but keeps
// all traversal state in session-local DRAM, so any number of sessions may
// serve queries concurrently over one loaded archive.  This is the unit the
// daemon pools — the archive is opened once, and every concurrent request
// borrows a session.
//
// Sessions model the post-load query phase: they must not run concurrently
// with engine task methods or Close (those mutate pool scratch), only with
// each other.  One session serves one batch at a time.
type QuerySession struct {
	e  *Engine
	sh *core.ShardedSession
}

// NewSession opens a query session.  Sessions require an N-TADOC medium
// (NVM/SSD/HDD); the DRAM baseline engine has no session support.
func (e *Engine) NewSession() (*QuerySession, error) {
	if e.sh == nil {
		return nil, fmt.Errorf("ntadoc: query sessions require an N-TADOC medium")
	}
	return &QuerySession{e: e, sh: e.sh.NewSession()}, nil
}

// RunBatch executes the tasks as one fused traversal against session-local
// state, with cancellation: the kernel polls ctx at its loop heads, so a
// canceled request (client disconnect, deadline) unwinds within one body
// read per shard lane.  Results are bit-identical to Engine.RunBatch.
func (s *QuerySession) RunBatch(ctx context.Context, tasks ...Task) (*BatchResult, error) {
	return s.RunSpec(ctx, NewBatchSpec(tasks, 0))
}

// RunSpec executes a canonicalized batch with cancellation.  On
// cancellation the error chain carries ctx.Err() inside a
// core.ErrShardFailed wrapper naming the lane that observed it; test with
// errors.Is against context.Canceled or context.DeadlineExceeded.
func (s *QuerySession) RunSpec(ctx context.Context, spec BatchSpec) (*BatchResult, error) {
	results, err := s.runOps(ctx, spec)
	if err != nil {
		return nil, err
	}
	return s.e.convertBatch(spec, results), nil
}

// runOps runs the spec's ops on the session's kernel, returning the ID-keyed
// results positionally (none for an empty batch).
func (s *QuerySession) runOps(ctx context.Context, spec BatchSpec) ([]any, error) {
	if len(spec.tasks) == 0 {
		return nil, nil
	}
	ops, err := spec.ops()
	if err != nil {
		return nil, err
	}
	return s.sh.RunOpsContext(ctx, ops)
}

// WorkspaceBytes reports the traversal working memory the session held at
// the end of its last run: what it keeps warm between requests.  Safe to call
// while the session is serving.
func (s *QuerySession) WorkspaceBytes() int64 { return s.sh.WorkspaceBytes() }

// DocumentNames returns the archive's document names in corpus order —
// the index space of per-document results like term vectors.  The snapshot
// includes documents appended so far.
func (e *Engine) DocumentNames() []string {
	return append([]string(nil), e.docNames()...)
}

// docNames returns a point-in-time snapshot of the name table.  Name IDs
// are stable — appends only extend the table — so a snapshot's prefix stays
// valid while new documents land.
func (e *Engine) docNames() []string {
	e.namesMu.RLock()
	defer e.namesMu.RUnlock()
	return e.names
}

// BuildTag returns the archive's build tag: the checksum of its shared rule
// table, at every shard count.  The daemon folds it into cache generations
// so results can never outlive the build that produced them, and every
// shard pool carries it.  The tag is captured when the engine is built:
// computing it re-encodes the whole shared rule table, far too much for a
// per-request key.
func (e *Engine) BuildTag() uint32 { return e.buildTag }

// ShardPool is one shard's simulated-device pool as the process holds it.
// The device keeps the pool in page mappings, of which only the touched
// prefix is resident: about Used bytes in each of its two images (volatile
// and durable).
type ShardPool struct {
	Size int64 // bytes each of the device's images maps
	Used int64 // the pool's allocation watermark
}

// ShardPools reports every shard's pool (nil for DRAM engines).
func (e *Engine) ShardPools() []ShardPool {
	if e.sh == nil {
		return nil
	}
	out := make([]ShardPool, e.sh.NumShards())
	for i := range out {
		p := e.sh.Shard(i).Pool()
		out[i] = ShardPool{Size: p.Size(), Used: p.Allocated()}
	}
	return out
}

// ShardStrategies reports the per-file traversal direction the cost-based
// planner resolved for each shard (nil for DRAM engines).
func (e *Engine) ShardStrategies() []string {
	if e.sh == nil {
		return nil
	}
	out := make([]string, e.sh.NumShards())
	for i := range out {
		out[i] = e.sh.Shard(i).Strategy().String()
	}
	return out
}

// DeviceCounters mirrors the cumulative statistics of the engine's
// simulated device(s), summed across shards: the counters behind the
// modeled-time evaluation, exported for the daemon's /metrics surface.
type DeviceCounters struct {
	Reads           int64
	Writes          int64
	BytesRead       int64
	BytesWritten    int64
	GranuleReads    int64
	GranuleWrites   int64
	CacheHits       int64
	CacheMisses     int64
	Flushes         int64
	FlushedBytes    int64
	FlushedGranules int64
	Drains          int64
	Seeks           int64
	ModeledNanos    int64
}

// DeviceCounters returns the engine's cumulative device statistics (zero
// for DRAM engines, which have no simulated device).
func (e *Engine) DeviceCounters() DeviceCounters {
	var st nvm.Stats
	if e.sh != nil {
		st = e.sh.DeviceStats()
	}
	return DeviceCounters{
		Reads:           st.Reads,
		Writes:          st.Writes,
		BytesRead:       st.BytesRead,
		BytesWritten:    st.BytesWritten,
		GranuleReads:    st.GranuleReads,
		GranuleWrites:   st.GranuleWrites,
		CacheHits:       st.CacheHits,
		CacheMisses:     st.CacheMisses,
		Flushes:         st.Flushes,
		FlushedBytes:    st.FlushedBytes,
		FlushedGranules: st.FlushedGranules,
		Drains:          st.Drains,
		Seeks:           st.Seeks,
		ModeledNanos:    st.ModeledNanos,
	}
}
