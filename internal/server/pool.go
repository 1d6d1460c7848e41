package server

import (
	"context"
	"errors"

	"sync"

	"github.com/text-analytics/ntadoc"
)

// Pool admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrOverloaded reports that the admission queue is full: the request
	// is shed immediately (429) rather than adding unbounded latency.
	ErrOverloaded = errors.New("server: session pool overloaded")
	// ErrRecovering reports that the pool is quiesced for engine recovery;
	// requests arriving meanwhile are refused (503) and should retry.
	ErrRecovering = errors.New("server: engine recovering")
)

// sessionPool is the admission-controlled pool of query sessions.  Capacity
// bounds concurrent traversals (each session runs one batch at a time); the
// queue depth bounds how many requests may wait for a session before the
// pool starts shedding load.  drain/refill quiesce the pool around engine
// recovery: drain collects every session (waiting out in-flight batches),
// and refill installs fresh sessions over the recovered engine — the old
// ones may reference shard engines retired by a failover.
//
// Sessions are handed out most recently released first.  A session's
// traversal workspaces grow when it first serves and stay warm afterwards,
// so with c concurrent clients c sessions do all the work and the rest never
// grow theirs; rotating through all of them would multiply the working
// memory by size/c for nothing.
type sessionPool struct {
	// ready holds one token per idle session: taking a token is the right
	// to pop the stack.  A channel, so waiting composes with ctx.Done().
	ready chan struct{}
	size  int

	mu       sync.Mutex
	free     []*ntadoc.QuerySession // guarded by mu: idle sessions, top = last released
	all      []*ntadoc.QuerySession // guarded by mu: every session, idle or borrowed
	waiting  int                    // guarded by mu
	draining bool                   // guarded by mu
	depth    int
}

// newSessionPool opens size sessions over eng up front.
func newSessionPool(eng *ntadoc.Engine, size, depth int) (*sessionPool, error) {
	p := &sessionPool{ready: make(chan struct{}, size), size: size, depth: depth}
	if err := p.refill(eng); err != nil {
		return nil, err
	}
	return p, nil
}

// pop takes the most recently released idle session; the caller holds a
// token from ready.
func (p *sessionPool) pop() *ntadoc.QuerySession {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.popLocked()
}

func (p *sessionPool) popLocked() *ntadoc.QuerySession {
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return s
}

// admit makes the admission decision under mu: an idle session (fast
// path), an admission error, or (nil, nil) meaning the caller is counted
// as a waiter and may block for a session.
//
// The draining check runs before any channel receive, so once drain begins
// no new request can take a session; requests already queued may still win
// one released by an in-flight batch — that is safe (recovery starts only
// after drain holds all sessions) and finite (the waiter set only shrinks).
func (p *sessionPool) admit() (*ntadoc.QuerySession, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil, ErrRecovering
	}
	select {
	case <-p.ready:
		return p.popLocked(), nil
	default:
	}
	if p.waiting >= p.depth {
		return nil, ErrOverloaded
	}
	p.waiting++
	return nil, nil
}

// unqueue removes an admitted waiter.
func (p *sessionPool) unqueue() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiting--
}

// acquire borrows a session, queueing up to the admission depth.  It fails
// fast with ErrOverloaded when the queue is full, ErrRecovering while the
// pool is quiesced, and ctx.Err() if the request dies while queued.
func (p *sessionPool) acquire(ctx context.Context) (*ntadoc.QuerySession, error) {
	s, err := p.admit()
	if err != nil || s != nil {
		return s, err
	}
	defer p.unqueue()
	select {
	case <-p.ready:
		return p.pop(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns a borrowed session.
func (p *sessionPool) release(s *ntadoc.QuerySession) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
	p.ready <- struct{}{}
}

// idle reports the number of sessions not currently borrowed.
func (p *sessionPool) idle() int { return len(p.ready) }

// workspaceBytes sums the traversal working memory every session holds.
func (p *sessionPool) workspaceBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, s := range p.all {
		n += s.WorkspaceBytes()
	}
	return n
}

// queued reports the number of requests waiting for a session.
func (p *sessionPool) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiting
}

// drain quiesces the pool: new acquires are refused, and drain blocks until
// it holds every session — i.e. until all in-flight batches have finished.
func (p *sessionPool) drain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	for i := 0; i < p.size; i++ {
		<-p.ready
		p.pop()
	}
}

// refill installs fresh sessions after recovery and reopens admission.
// On error the pool stays quiesced; the server marks itself down.
func (p *sessionPool) refill(eng *ntadoc.Engine) error {
	fresh := make([]*ntadoc.QuerySession, p.size)
	for i := range fresh {
		s, err := eng.NewSession()
		if err != nil {
			return err
		}
		fresh[i] = s
	}
	p.mu.Lock()
	p.all = fresh
	p.free = append(p.free[:0], fresh...)
	p.draining = false
	p.mu.Unlock()
	for range fresh {
		p.ready <- struct{}{}
	}
	return nil
}
