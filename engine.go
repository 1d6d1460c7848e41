package ntadoc

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/core"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/tadoc"
)

// Medium selects the simulated storage the compressed data lives on.
type Medium int

// Supported media.  NVM is the system's target; SSD and HDD reproduce the
// paper's Figure 7 comparison points; DRAM runs the original TADOC engine
// (the paper's theoretical upper bound) with no device simulation.
const (
	MediumNVM Medium = iota
	MediumDRAM
	MediumSSD
	MediumHDD
)

// Persistence selects the paper's §IV-E persistence strategy.
type Persistence int

// Persistence strategies.
const (
	// PhaseLevel persists at phase boundaries (cheap; recovery restarts
	// the interrupted phase).
	PhaseLevel Persistence = iota
	// OperationLevel additionally redo-logs every counter mutation with a
	// per-operation fence (write-amplified; recovery replays the log).
	OperationLevel
)

// Options configures an analytics engine.
type Options struct {
	// Medium is the storage the compressed data lives on (default NVM).
	Medium Medium
	// Persistence selects the persistence strategy (N-TADOC media only).
	Persistence Persistence
	// PoolPath makes the NVM pool file-backed, surviving process restarts.
	PoolPath string
	// NoSequences skips the sequence-analytics preprocessing (per-rule
	// n-gram tables, per-file root runs) at engine construction.  It makes
	// construction substantially cheaper; SequenceCount and
	// RankedInvertedIndex then return an error.
	NoSequences bool
	// Replicas keeps this many follower devices per shard (N-TADOC media
	// only; an unsharded archive is one shard): each shard ships every
	// committed durable delta to its followers, and a query falls over to a
	// follower — transparently, with bit-identical results — when the
	// shard's primary device fails.
	Replicas int
	// ReplicaReads lets multi-task batches split each shard's work between
	// its primary and a read replica recovered from a follower image,
	// shortening the slowest lane.  Requires Replicas >= 1.
	ReplicaReads bool
	// IngestCapacity reserves this many bytes of durable append-log space per
	// shard (N-TADOC media only): the engine then accepts live Append calls,
	// serving them from per-shard delta grammars without recompressing the
	// base.  Zero disables ingestion; a full log returns ErrIngestFull until
	// the corpus is recompressed.
	IngestCapacity int64
}

// TermCount is a word with its frequency.
type TermCount struct {
	Term  string
	Count uint64
}

// DocCount is a document with an occurrence count.
type DocCount struct {
	Doc   string
	Count uint64
}

// Engine runs the six analytics tasks over an archive.  Engines built on
// MediumNVM/SSD/HDD are N-TADOC instances over simulated persistent
// devices; MediumDRAM is the original TADOC baseline.  On N-TADOC media the
// engine is a shard set: one device and pool per archive shard (one for an
// unsharded archive), built in parallel, with queries scattered across the
// shards and gathered into corpus-wide results.
type Engine struct {
	a     *Archive
	inner analytics.Executor  // sh on N-TADOC media, the TADOC engine on DRAM
	sh    *core.ShardedEngine // nil on MediumDRAM

	buildTag uint32 // the archive's shared-table checksum at construction; see BuildTag

	namesMu sync.RWMutex
	names   []string // guarded by namesMu: global document index -> name

	// appendMu serializes public Append calls: the novel-word window
	// (dictionary growth since the last committed batch) spans tokenization
	// and the core commit, so the two must not interleave.
	appendMu       sync.Mutex
	committedVocab int // guarded by appendMu: vocabulary covered by committed batches
}

// Sentinel ingestion errors, re-exported for errors.Is matching.
var (
	// ErrNoIngest reports an Append or Compact on an engine built without
	// ingestion support (DRAM medium or Options.IngestCapacity == 0).
	ErrNoIngest = core.ErrNoIngest
	// ErrIngestFull reports an Append that does not fit the remaining
	// durable log capacity; the corpus must be recompressed.
	ErrIngestFull = core.ErrIngestFull
	// ErrCompacting reports an Append rejected because a compaction swap is
	// in progress; the append can simply be retried.
	ErrCompacting = core.ErrCompacting
)

// NewEngine builds an engine for the archive.
func NewEngine(a *Archive, opts Options) (*Engine, error) {
	// An archive carrying unfolded appended documents (from a prior engine's
	// Append calls) folds them first, so the new engine serves the full
	// corpus.
	if err := a.fold(); err != nil {
		return nil, err
	}
	e := &Engine{a: a, names: a.DocumentNames(), committedVocab: a.d.Len()}
	if a.shared != nil {
		e.buildTag = a.shared.Checksum()
	}
	if opts.Medium == MediumDRAM {
		// The DRAM baseline has no per-shard devices to parallelize over;
		// it runs on the whole-corpus grammar view.
		inner, err := tadoc.New(a.g, a.d, tadoc.Auto)
		if err != nil {
			return nil, err
		}
		e.inner = inner
		return e, nil
	}
	kind := nvm.KindNVM
	switch opts.Medium {
	case MediumSSD:
		kind = nvm.KindSSD
	case MediumHDD:
		kind = nvm.KindHDD
	}
	persistence := core.PhaseLevel
	if opts.Persistence == OperationLevel {
		persistence = core.OpLevel
	}
	copts := core.Options{
		Kind:        kind,
		Path:        opts.PoolPath,
		Persistence: persistence,
		Sequences:   !opts.NoSequences,
		IngestCap:   opts.IngestCapacity,
		// Tie every shard pool to this unified build: recovery rejects a
		// device set mixing shards of different shared-rule containers.
		BuildTag: e.buildTag,
	}
	if opts.Replicas > 0 {
		copts.Replication = core.Replication{
			Followers:    opts.Replicas,
			ReplicaReads: opts.ReplicaReads,
		}
	}
	gs := a.shards
	if gs == nil {
		gs = []*cfg.Grammar{a.g}
	}
	sh, err := core.NewSharded(gs, a.d, copts)
	if err != nil {
		return nil, err
	}
	e.inner = sh
	e.sh = sh
	return e, nil
}

// Close releases the engine's simulated devices (no-op for DRAM engines).
func (e *Engine) Close() error {
	if e.sh != nil {
		return e.sh.Close()
	}
	return nil
}

// NumShards returns the engine's shard count: 1 for unsharded archives and
// for the DRAM engine, which runs on the whole-corpus grammar.
func (e *Engine) NumShards() int {
	if e.sh != nil {
		return e.sh.NumShards()
	}
	return 1
}

// Append tokenizes docs and appends them to the live corpus as one durable
// batch.  The batch is written to the engine's append log (body first, then
// an atomic header commit), so a crash at any point recovers to "batch fully
// visible" or "batch absent" — never a torn state.  Appended documents are
// served from per-shard delta grammars merged with base results at query
// time; results are bit-identical to recompressing the whole corpus, and
// concurrent queries are never blocked (each sees a consistent corpus cut).
//
// Requires an N-TADOC medium with Options.IngestCapacity > 0; otherwise
// ErrNoIngest.  ErrCompacting means a compaction swap was in progress and
// the append can simply be retried; ErrIngestFull means the log is
// exhausted and the corpus must be recompressed.
func (e *Engine) Append(docs []Document) error {
	if e.sh == nil {
		return fmt.Errorf("ntadoc: append: %w", ErrNoIngest)
	}
	if len(docs) == 0 {
		return nil
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	var tk dict.Tokenizer
	ads := make([]core.AppendDoc, len(docs))
	tokens := make([][]uint32, len(docs))
	names := make([]string, len(docs))
	for i, doc := range docs {
		t := tk.EncodeString(e.a.d, doc.Text)
		ads[i] = core.AppendDoc{Name: doc.Name, Tokens: t}
		tokens[i], names[i] = t, doc.Name
	}
	// The batch's novel words are everything interned since the last
	// committed batch — including leftovers from a failed attempt, which
	// harmlessly ride along so recovery can always rebuild the dictionary.
	vocab := e.a.d.Len()
	novel := append([]string(nil), e.a.d.Words()[e.committedVocab:vocab]...)
	if err := e.sh.Append(ads, uint32(vocab), novel); err != nil {
		return fmt.Errorf("ntadoc: append: %w", err)
	}
	e.committedVocab = vocab
	e.namesMu.Lock()
	e.names = append(e.names, names...)
	e.namesMu.Unlock()
	e.a.recordAppend(tokens, names)
	return nil
}

// CorpusEpoch returns the engine's corpus epoch: it advances on every
// committed append batch and every compaction, and serving layers key their
// result caches by it.  Zero for engines without ingestion.
func (e *Engine) CorpusEpoch() uint64 {
	if e.sh != nil {
		return e.sh.CorpusEpoch()
	}
	return 0
}

// IngestStats is the observable ingestion state of an engine.
type IngestStats struct {
	Batches       uint64 // committed append batches
	AppendedDocs  uint64 // appended documents (including compacted ones)
	LogBytes      int64  // committed append-log bytes
	LogCapacity   int64  // append-log capacity
	DeltaDocs     int    // documents in the live (uncompacted) deltas
	DeltaSymbols  int64  // live delta grammar body symbols
	CompactedDocs uint32 // appended documents folded into the serving base
	Compactions   uint64 // compactions performed
	// ServingEngines counts the engines the appendable shards keep mapped to
	// serve: per shard its own engine, the tail the last compaction
	// published, the latest delta snapshot, and whatever a query in flight
	// still has pinned.  Bounded by three per shard once requests drain.
	ServingEngines int
}

// IngestStats reports the engine's ingestion state (zero value for engines
// without ingestion).
func (e *Engine) IngestStats() IngestStats {
	var st core.IngestStats
	if e.sh != nil {
		st = e.sh.IngestStats()
	}
	return IngestStats{
		Batches:        st.Batches,
		AppendedDocs:   st.Docs,
		LogBytes:       st.LogBytes,
		LogCapacity:    st.LogCap,
		DeltaDocs:      st.DeltaDocs,
		DeltaSymbols:   st.DeltaSymbols,
		CompactedDocs:  st.CompactedDocs,
		Compactions:    st.Compactions,
		ServingEngines: st.ServingEngines,
	}
}

// CompactionPolicy sets the thresholds at which AutoCompact folds live
// delta grammars back into the serving base.  Zero fields use defaults.
type CompactionPolicy struct {
	// MaxDeltaDocs triggers compaction once a shard's live delta holds more
	// than this many appended documents.
	MaxDeltaDocs int
	// MaxDeltaBytes triggers compaction once a shard's live delta grammar
	// exceeds this many bytes of body symbols.
	MaxDeltaBytes int64
	// Interval is the background worker's polling cadence.
	Interval time.Duration
}

// AutoCompact starts the background compaction worker: it polls the
// engine's delta sizes on the policy's cadence and folds deltas into the
// serving base whenever thresholds are crossed, keeping query cost over
// base+delta bounded while appends continue.  Compaction swaps never block
// queries (in-flight queries finish on their pinned snapshot).  The
// returned stop function shuts the worker down; it is a no-op for engines
// without ingestion.
func (e *Engine) AutoCompact(p CompactionPolicy) (stop func()) {
	if e.sh == nil {
		return func() {}
	}
	c := core.StartCompactor(e.sh, core.CompactionPolicy{
		MaxDeltaDocs:  p.MaxDeltaDocs,
		MaxDeltaBytes: p.MaxDeltaBytes,
		Interval:      p.Interval,
	})
	return c.Stop
}

// Compact folds all live delta grammars into the serving base immediately.
// ErrNoIngest on an engine built without ingestion support.
func (e *Engine) Compact() error {
	if e.sh == nil {
		return fmt.Errorf("ntadoc: compact: %w", ErrNoIngest)
	}
	if err := e.sh.Compact(); err != nil {
		return fmt.Errorf("ntadoc: compact: %w", err)
	}
	return nil
}

// The per-task methods are one-task batches, except TermVectors, whose k is
// a truncation (0 keeps every term) where a batch's is a choice of default.
func (e *Engine) runTask(t Task) (*BatchResult, error) {
	res, err := e.RunBatch(t)
	if err != nil {
		return &BatchResult{}, err
	}
	return res, nil
}

// WordCount returns the total occurrences of each word across the archive.
func (e *Engine) WordCount() (map[string]uint64, error) {
	res, err := e.runTask(TaskWordCount)
	return res.WordCount, err
}

// Sort returns the distinct words with counts in alphabetical order.
func (e *Engine) Sort() ([]TermCount, error) {
	res, err := e.runTask(TaskSort)
	return res.Sort, err
}

// TermVectors returns each document's words by descending frequency,
// truncated to k entries when k > 0.
func (e *Engine) TermVectors(k int) ([][]TermCount, error) {
	tv, err := analytics.TermVectors(e.inner, k)
	if err != nil {
		return nil, err
	}
	return e.converter().termVectors(tv), nil
}

// InvertedIndex maps each word to the names of the documents containing it,
// in document order.
func (e *Engine) InvertedIndex() (map[string][]string, error) {
	res, err := e.runTask(TaskInvertedIndex)
	return res.InvertedIndex, err
}

// SequenceCount returns the occurrences of each three-word sequence, keyed
// by the space-joined words.
func (e *Engine) SequenceCount() (map[string]uint64, error) {
	res, err := e.runTask(TaskSequenceCount)
	return res.SequenceCount, err
}

// RankedInvertedIndex maps each three-word sequence to its documents in
// decreasing order of occurrence.
func (e *Engine) RankedInvertedIndex() (map[string][]DocCount, error) {
	res, err := e.runTask(TaskRankedInvertedIndex)
	return res.RankedInvertedIndex, err
}

// TopTerms is a convenience: the n most frequent words across the archive,
// ties broken alphabetically.
func (e *Engine) TopTerms(n int) ([]TermCount, error) {
	counts, err := e.WordCount()
	if err != nil {
		return nil, err
	}
	out := make([]TermCount, 0, len(counts))
	for t, c := range counts {
		out = append(out, TermCount{Term: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Term < out[j].Term
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// PhaseTimes reports the modeled initialization and graph-traversal times of
// the last task (N-TADOC engines only; zero for DRAM engines).
func (e *Engine) PhaseTimes() (init, traversal time.Duration) {
	if e.sh != nil {
		return e.sh.InitSpan().Total(), e.sh.LastTraversalSpan().Total()
	}
	return 0, 0
}

// MemoryFootprint reports the engine's storage residency: pool bytes on the
// simulated device and estimated DRAM bytes.
func (e *Engine) MemoryFootprint() (deviceBytes, dramBytes int64) {
	if e.sh != nil {
		return e.sh.NVMBytes(), e.sh.DRAMBytes()
	}
	if t, ok := e.inner.(*tadoc.Engine); ok {
		return 0, t.DRAMBytes()
	}
	return 0, 0
}
