package core

import (
	"context"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/metrics"
)

// Session is a read-only query context over an engine's pool: it runs
// analytics ops through the same operation kernel as the engine's task
// methods, but keeps every piece of traversal state — rule weights, the
// Kahn queue, result counters — in its traversal workspace (workspace.go),
// so it never mutates the pool.  Multiple sessions may query one engine
// concurrently from different goroutines.
//
// Sessions model the post-load query phase: they must not run concurrently
// with engine task methods or Close (those mutate traversal scratch in the
// pool), only with each other.  Opening the first session switches the
// simulated device into shared mode, which serializes its bookkeeping;
// device statistics then aggregate the traffic of all sessions.
type Session struct {
	e     *Engine
	meter metrics.Meter
	run   exec
}

// NewSession opens a query session over the engine's current pool contents,
// with a workspace of its own.  Opening is cheap: the workspace grows when a
// run first needs it.
func (e *Engine) NewSession() *Session { return e.newSession(nil) }

// newSession opens a session running in ws — a ShardedSession's slot for the
// shard, lent to whichever engine is serving it — or, given none, in a
// workspace of its own.
func (e *Engine) newSession(ws *workspace) *Session {
	if ws == nil {
		ws = &workspace{}
	}
	s := &Session{e: e}
	s.run = exec{e: e, meter: &s.meter, ws: ws, session: true}
	e.dev.Share()
	return s
}

// RunOps implements analytics.Executor: the batch executes in one fused
// traversal against session-local state.
func (s *Session) RunOps(ops []analytics.Op) ([]any, error) {
	return s.runOps(nil, ops)
}

// RunOpsContext is RunOps with cancellation: the traversal polls ctx at its
// loop heads and unwinds with ctx.Err() (wrapped in the usual engine error)
// once the request is canceled or past its deadline.  The session stays
// usable afterwards — every run starts from freshly reset session state, so
// an abandoned traversal leaves nothing behind.  A session must not run two
// batches concurrently; serving layers give each in-flight request its own
// pooled session.
func (s *Session) RunOpsContext(ctx context.Context, ops []analytics.Op) ([]any, error) {
	return s.runOps(ctx, ops)
}

// runOps executes the batch against the session's engine pool.
func (s *Session) runOps(ctx context.Context, ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	if err := s.e.checkSequences(ops); err != nil {
		return nil, err
	}
	s.run.setCtx(ctx)
	defer s.run.setCtx(nil)
	results, _, err := s.run.runPlan(ops)
	if err != nil {
		return nil, errEngine("session", err)
	}
	return results, nil
}

// Meter reports the modeled CPU cost of the work this session has run.
func (s *Session) Meter() *metrics.Meter {
	return &s.meter
}

var _ analytics.Executor = (*Session)(nil)
