package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
)

// countdownCtx is a deterministic cancellation source: it reports Canceled
// after Err has been polled n times.  The kernel polls once per rule or file
// visited, so a countdown lands the cancellation mid-traversal without any
// timing dependence.
type countdownCtx struct {
	mu   sync.Mutex
	left int // guarded by mu
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestSessionCancelMidBatch cancels a fused batch partway through its
// traversal and checks that the error is the context's, and that the same
// session then runs the identical batch to completion with results equal to
// an never-canceled session's.
func TestSessionCancelMidBatch(t *testing.T) {
	_, d, g := corpus(t, 61, 6, 300, 30)
	e := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()

	ref := e.NewSession()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("reference session RunOps: %v", err)
	}

	s := e.NewSession()
	// Sweep cancellation points from the very first poll deep into the
	// traversal; every countdown must surface context.Canceled, never a
	// partial result.
	for _, n := range []int{0, 1, 2, 5, 10, 50} {
		_, err := s.RunOpsContext(&countdownCtx{left: n}, ops)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunOpsContext(countdown %d) = %v, want context.Canceled", n, err)
		}
	}
	// The session remains usable after an abandoned traversal.
	got, err := s.RunOpsContext(context.Background(), ops)
	if err != nil {
		t.Fatalf("RunOpsContext after cancellations: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-cancel results differ from a clean session's")
	}
}

// TestShardedSessionCancel cancels a sharded scatter-gather mid-batch: the
// error must carry the context cause (typed per shard), and the session must
// serve the full batch afterwards.
func TestShardedSessionCancel(t *testing.T) {
	files, d, g := corpus(t, 62, 6, 300, 30)
	ref := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := ref.RunOps(ops)
	if err != nil {
		t.Fatalf("unsharded RunOps: %v", err)
	}
	gs := shardGrammars(t, files, uint32(d.Len()), 3)
	se, err := NewSharded(gs, d, Options{Sequences: true})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { se.Close() })

	ss := se.NewSession()
	for _, n := range []int{0, 3, 25} {
		_, err := ss.RunOpsContext(&countdownCtx{left: n}, ops)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunOpsContext(countdown %d) = %v, want context.Canceled in chain", n, err)
		}
		var sf *ErrShardFailed
		if !errors.As(err, &sf) {
			t.Fatalf("RunOpsContext(countdown %d) = %v, want ErrShardFailed wrapper", n, err)
		}
	}
	// A context canceled through the standard library path (client
	// disconnect) unwinds the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ss.RunOpsContext(ctx, ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOpsContext(pre-canceled) = %v, want context.Canceled", err)
	}

	got, err := ss.RunOpsContext(context.Background(), ops)
	if err != nil {
		t.Fatalf("RunOpsContext after cancellations: %v", err)
	}
	for i, op := range ops {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("op %s: post-cancel sharded result differs from unsharded", op.Name())
		}
	}
}

// TestSessionCancelRealContexts runs a session under the standard library's
// contexts, whose Done channel the kernel polls instead of Err: a canceled
// context and an already-expired deadline each unwind with the context's
// own error, and a live cancelable context then runs the batch clean.
func TestSessionCancelRealContexts(t *testing.T) {
	_, d, g := corpus(t, 63, 6, 300, 30)
	e := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()
	want, err := e.NewSession().RunOps(ops)
	if err != nil {
		t.Fatalf("reference session RunOps: %v", err)
	}

	s := e.NewSession()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
	} {
		if _, err := s.RunOpsContext(tc.ctx, ops); !errors.Is(err, tc.want) {
			t.Fatalf("RunOpsContext(%s) = %v, want %v", tc.name, err, tc.want)
		}
	}

	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	got, err := s.RunOpsContext(live, ops)
	if err != nil {
		t.Fatalf("RunOpsContext(live) after cancellations: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-cancel results differ from a clean session's")
	}
}
