package core

import (
	"errors"
	"sync/atomic"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
)

// workspace is one lane's traversal working memory, and the only home of a
// query session's traversal state.  A ShardedSession owns one per shard slot
// and lends it to whichever engine the pin says is serving that shard — the
// build-time engine, a compacted tail, and (after the lane has finished) the
// shard's delta view — so a session that keeps serving keeps its memory.
//
// Everything is grown on first use, never in NewSession, and every structure
// is (re)initialized by the pass that uses it, for the engine that pass runs
// on: a run abandoned midway leaves nothing the next run can see, and
// re-fitting to another engine is a re-slice.  Results never alias workspace
// memory — callers keep them across later runs — so whatever leaves a run is
// copied out by the fold that built it.
//
// Session state comes in three forms, each sized by a bound the engine
// already has: rule-indexed arrays (weights, remaining parents, per-file
// weights, the Kahn ring, the per-rule run table: numRules); a dense scratch
// per key space for the counter being accumulated (numWords, len(seqList);
// its touch list by the counter's own Algorithm 2 bound); and an arena of
// frozen (key, value) runs for the bottom-up pass's per-rule word lists (at
// most the planner's persisted merge work, plus the root's list).  The
// persistent path uses the read scratch and the fold scratch only; its
// traversal state stays in the pool.
type workspace struct {
	// Read scratch: decoded device reads, valid until the next read of the
	// same kind.
	bodyFlat  []uint32
	bodySubs  []pair
	bodyWords []pair
	rawSyms   []cfg.Symbol
	runFlat   []uint32
	root      []cfg.Symbol
	topo      []uint32
	segs      [][]cfg.Symbol

	// Session traversal state.
	weights    []uint64
	remaining  []uint64
	fileWeight []uint64
	ring       []uint32
	words      denseScratch // counters keyed by word ID
	seqs       denseScratch // counters keyed by sequence ID
	arena      kvArena
	runs       [][]kv // bottom-up: rule -> its frozen word list

	folds analytics.FoldScratch

	// held is the footprint published at the end of the last run, for the
	// serving layer's gauge (read while other runs are in flight).
	held atomic.Int64
}

// fit returns s resliced to n elements, reallocating when its capacity falls
// short.  Contents are unspecified: every user initializes what it reads.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// kv is one entry of a frozen run.
type kv struct{ k, v uint64 }

// errKeySpace reports a counter key at or beyond the engine's key space: a
// body or table naming a word or sequence the engine never interned, which
// only a corrupt pool can produce.
var errKeySpace = errors.New("counter key outside the engine's key space")

// denseScratch is the accumulating form of a session counter: a value per
// key of a dense key space plus the touched keys in first-touch order.  Zero
// means absent, as in pstruct.DenseCounter — no traversal adds a zero delta —
// so a key costs eight bytes and needs no presence mark.  Adding is one array
// access, starting the next counter zeroes what the last one touched, and
// iteration follows the touch list, so it is deterministic.
type denseScratch struct {
	vals    []uint64
	touched []uint32
}

// begin empties the scratch for a counter over keys [0, keySpace) holding at
// most bound distinct keys — the bound the persistent path sizes its pool
// table from, here sparing the touch list any growth.
func (s *denseScratch) begin(keySpace, bound int64) {
	all := s.vals[:cap(s.vals)] // the last counter may have run on a wider key space
	for _, k := range s.touched {
		all[k] = 0
	}
	if int64(cap(s.vals)) < keySpace {
		s.vals = make([]uint64, keySpace)
	}
	s.vals = s.vals[:keySpace]
	if bound > keySpace {
		bound = keySpace
	}
	if int64(cap(s.touched)) < bound {
		s.touched = make([]uint32, 0, bound)
	}
	s.touched = s.touched[:0]
}

func (s *denseScratch) add(key, delta uint64) error {
	if key >= uint64(len(s.vals)) {
		return errKeySpace
	}
	v := s.vals[key]
	if v == 0 {
		if delta == 0 {
			return nil
		}
		s.touched = append(s.touched, uint32(key))
	}
	s.vals[key] = v + delta
	return nil
}

func (s *denseScratch) bytes() int64 {
	return int64(cap(s.vals))*8 + int64(cap(s.touched))*4
}

// kvArena bump-allocates frozen runs out of chunks it keeps from run to run.
// A run is never moved once handed out, so chunks are added, not regrown.
type kvArena struct {
	chunks [][]kv
	cur    int
}

// arenaChunk is the most entries one chunk is allocated for unless a single
// run needs more (1 MiB of entries).
const arenaChunk = 1 << 16

func (a *kvArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// alloc returns room for n entries.  bound caps the size of a new chunk: no
// pass freezes more than bound entries in all, so a small engine's arena
// stays small.
func (a *kvArena) alloc(n int, bound int64) []kv {
	for ; a.cur < len(a.chunks); a.cur++ {
		if c := a.chunks[a.cur]; cap(c)-len(c) >= n {
			a.chunks[a.cur] = c[:len(c)+n]
			return c[len(c) : len(c)+n : len(c)+n]
		}
	}
	size := max(n, int(min(bound, arenaChunk)))
	a.chunks = append(a.chunks, make([]kv, n, size))
	return a.chunks[a.cur][:n:n]
}

func (a *kvArena) bytes() int64 {
	var n int64
	for _, c := range a.chunks {
		n += int64(cap(c)) * 16
	}
	return n
}

// publish records the workspace's current footprint for Bytes.
func (w *workspace) publish() {
	n := int64(cap(w.bodyFlat)+cap(w.rawSyms)+cap(w.runFlat)+cap(w.root)+cap(w.topo)+cap(w.ring))*4 +
		int64(cap(w.bodySubs)+cap(w.bodyWords)+cap(w.weights)+cap(w.remaining)+cap(w.fileWeight))*8 +
		int64(cap(w.segs)+cap(w.runs))*24 +
		w.words.bytes() + w.seqs.bytes() + w.arena.bytes() + w.folds.Bytes()
	w.held.Store(n)
}

// Bytes reports the memory the workspace held at the end of its last run.
func (w *workspace) Bytes() int64 { return w.held.Load() }
