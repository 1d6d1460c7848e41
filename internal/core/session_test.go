package core

import (
	"reflect"
	"sync"
	"testing"

	"github.com/text-analytics/ntadoc/internal/analytics"
)

// TestConcurrentSessions opens several query sessions over one engine and
// runs the full op set from each concurrently — odd workers as six solo
// runs, even workers as one fused batch.  Every result must match the
// single-threaded engine run.  The race detector (make race) validates that
// session traversal state really is private.
func TestConcurrentSessions(t *testing.T) {
	_, d, g := corpus(t, 53, 5, 300, 50)
	e := newEngine(t, g, d, Options{Sequences: true})
	ops := analytics.Ops()

	want := make([]any, len(ops))
	for i, op := range ops {
		res, err := analytics.RunAs[any](e, op)
		if err != nil {
			t.Fatalf("engine %v: %v", op.Task(), err)
		}
		want[i] = res
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			if w%2 == 0 {
				got, err := s.RunOps(ops)
				if err != nil {
					t.Errorf("worker %d RunOps: %v", w, err)
					return
				}
				for i, op := range ops {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("worker %d fused %v mismatch", w, op.Task())
					}
				}
			} else {
				for i, op := range ops {
					got, err := analytics.RunAs[any](s, op)
					if err != nil {
						t.Errorf("worker %d %v: %v", w, op.Task(), err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d %v mismatch", w, op.Task())
					}
				}
			}
			if s.Meter().Nanos() == 0 {
				t.Errorf("worker %d: session meter recorded no work", w)
			}
		}(w)
	}
	wg.Wait()
}

// TestSessionDoesNotDisturbEngine interleaves a session run between two
// engine runs: the session's DRAM-resident traversal must leave the pool's
// persistent scratch state intact.
func TestSessionDoesNotDisturbEngine(t *testing.T) {
	files, d, g := corpus(t, 54, 4, 250, 40)
	e := newEngine(t, g, d, Options{Sequences: true})

	s := e.NewSession()
	got, err := analytics.WordCount(s)
	if err != nil {
		t.Fatalf("session WordCount: %v", err)
	}
	if !reflect.DeepEqual(got, analytics.RefWordCount(files)) {
		t.Error("session word count mismatch")
	}
	checkAllTasks(t, e, files, d)
}

// TestSessionSeqGating: sequence ops on a words-only engine fail in
// sessions the same way they do on the engine itself.
func TestSessionSeqGating(t *testing.T) {
	_, d, g := corpus(t, 55, 3, 200, 30)
	e := newEngine(t, g, d, Options{Sequences: false})
	s := e.NewSession()
	if _, err := analytics.RunAs[any](s, analytics.SequenceCountOp{}); err != ErrNoSequences {
		t.Fatalf("session RunOp = %v, want ErrNoSequences", err)
	}
}
