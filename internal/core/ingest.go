package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// Online ingestion: durable live appends with a per-shard delta grammar.
//
// The durable truth of an appendable shard is its original pool plus a
// monotonic append log reserved below the initialization watermark (so
// traversal truncation can never reclaim it).  Each AppendAt writes one
// CRC-framed record carrying the batch's documents — tokens, names, and the
// novel word strings the batch interned — then commits it by advancing the
// region header's watermark with one 8-byte store.  The record body is
// flushed and drained before that store is made, so a crash recovers to
// "batch fully visible" or "batch absent", never a torn batch, whichever of
// the append's stores the cache wrote back early.
//
// Serving is layered over that durable log in DRAM as one published serving
// cut per shard (servingCut): a tail engine, an engine over the delta
// grammar's latest snapshot, and how many appended documents each holds.  A
// live sequitur DeltaBuilder extends the delta grammar one document at a
// time; after each commit AppendAt snapshots it into a small engine over a
// fresh device and publishes a new cut with the same tail.  The shard set's
// scatter-gather pins the cut, runs the tail traversal and the delta
// traversal independently, and merges the results through
// analytics.MergeUnits — bit-identical to rebuilding the engine from the
// concatenated corpus, because every analytics result depends only on the
// per-file token streams.  The shard engine's own RunOps and sessions serve
// its pool only: base-only results, no tail redirect.
//
// Compaction replaces the cut's tail: the tail's grammar and the delta
// snapshot are merged (cfg.MergeDelta) into a new engine, published as the
// tail of a cut with no delta.  An engine the current cut no longer names is
// discarded by whoever drops the last pin on a cut that does.  The durable
// log is never rewritten (it is monotonic — when the region fills, AppendAt
// returns ErrIngestFull), so a crash at any point during compaction recovers
// the pre-compaction state trivially: recovery replays the log into a fresh
// delta over the original base.

// ingestHeaderSize is the append-log region header: the committed watermark
// and the region capacity.  Batch, document and vocabulary counts are not
// stored: recovery derives them from the records the watermark covers.
const ingestHeaderSize = 64

// Region-header field offsets (region-relative).  Bytes 8–31 are unused:
// zero in a new pool, and counts recovery no longer reads in an older one.
const (
	ingOffCommitted = 0  // u64 committed record bytes after the header
	ingOffCap       = 32 // u64 region capacity after the header
)

// AppendDoc is one document of an append batch: its display name and its
// token IDs (already interned by the caller).
type AppendDoc struct {
	Name   string
	Tokens []uint32
}

// IngestBatch describes one committed append batch, as recovered from (or
// written to) the durable log.
type IngestBatch struct {
	GlobalBase uint32   // global index of the batch's first document
	Vocab      uint32   // vocabulary size after the batch
	Novel      []string // words first interned by this batch, in ID order
	Docs       []AppendDoc
}

// IngestStats is the observable ingestion state of an engine.
type IngestStats struct {
	Batches       uint64 // committed append batches
	Docs          uint64 // appended documents (including compacted ones)
	LogBytes      int64  // committed append-log bytes
	LogCap        int64  // append-log capacity
	DeltaDocs     int    // documents in the live (uncompacted) delta
	DeltaRules    int    // rules in the live delta grammar
	DeltaReused   int    // delta rules whose fingerprint the base already interned
	DeltaSymbols  int64  // live delta grammar body symbols
	CompactedDocs uint32 // appended documents folded into the serving base
	Compactions   uint64
	// ServingEngines counts the engines kept mapped to serve the shard: its
	// own, and the tails and deltas that are current or still pinned.
	ServingEngines int
}

// servingCut is one published snapshot of what serves an appendable shard:
// the tail engine (the shard engine itself until a compaction folds appended
// documents into a new one), the engine over the delta grammar's snapshot,
// and how many appended documents each holds.  A cut is immutable; a query
// reaches one only through ingestState.pin and gives it back with release.
type servingCut struct {
	st        *ingestState // nil in a static shard's pin, which holds nothing
	tail      *Engine
	delta     *Engine // nil while the tail holds every appended document
	compacted uint32  // appended documents folded into tail
	deltaDocs uint32  // appended documents delta holds
}

// ingestState is an appendable shard's ingestion state, owned by the shard
// engine: the durable log half, and the serving half layered over it — the
// delta builder, the grammar compaction merges it into, and the published
// cut with the count of who still needs each engine a cut has named.
type ingestState struct {
	e *Engine

	acc nvm.Accessor
	cap int64

	// mu serializes appends, compaction control, and recovery replay — the
	// cut's two writers.
	mu        sync.Mutex
	committed int64  // guarded by mu: committed record bytes
	batches   uint64 // guarded by mu: committed batches
	docs      uint64 // guarded by mu: committed appended documents
	vocab     uint32 // guarded by mu: vocabulary size after the last batch
	// compacting rejects appends while a compaction merge is building: the
	// merge itself runs unlocked.
	compacting  bool                   // guarded by mu
	db          *sequitur.DeltaBuilder // guarded by mu: documents appended since the tail was built
	baseG       *cfg.Grammar           // guarded by mu: the tail's grammar; nil on recovered engines
	compactions uint64                 // guarded by mu

	// cutMu publishes the cut.  It is separate from mu and held for a few
	// loads and stores only — never across a commit, a merge or a discard —
	// so a pin never waits for an append or a compaction.
	cutMu sync.Mutex
	cut   *servingCut // guarded by cutMu
	// refs counts, for every engine a live cut names, the pins on cuts
	// naming it plus one while the current cut does; an engine whose count
	// reaches zero leaves the map and is discarded.  The shard engine holds
	// one more for itself: it owns the append log, so it stays even when no
	// cut serves its DAG, and goes with Engine.Close.
	refs map[*Engine]int // guarded by cutMu

	epoch atomic.Uint64 // committed batches + compactions (corpus epoch)
}

// newDeltaBuilder opens an empty delta builder whose reuse accounting is
// seeded from g's rule fingerprints (nil: no accounting).
func newDeltaBuilder(numWords uint32, g *cfg.Grammar) *sequitur.DeltaBuilder {
	db, err := sequitur.NewDeltaBuilder(numWords, g)
	if err != nil {
		// Fingerprinting a validated grammar cannot fail; fall back to a
		// builder without reuse accounting rather than losing ingestion.
		db, _ = sequitur.NewDeltaBuilder(numWords, nil)
	}
	return db
}

// newIngestState builds the state over the append-log region acc during
// engine initialization (g is the engine's grammar) or recovery (g is nil:
// the grammar is gone), and publishes the cut in which the shard engine
// serves alone.
func newIngestState(e *Engine, acc nvm.Accessor, g *cfg.Grammar) *ingestState {
	st := &ingestState{e: e, acc: acc, cap: acc.Size() - ingestHeaderSize, baseG: g, vocab: e.numWords,
		db: newDeltaBuilder(e.numWords, g), refs: map[*Engine]int{e: 1}}
	// Appends interleave with query sessions; shared mode serializes the
	// device's bookkeeping under concurrency.
	e.dev.Share()
	st.publish(&servingCut{st: st, tail: e})
	return st
}

// close gives up the state's references on everything but the shard engine,
// by publishing the cut that names it alone: an engine no pin holds is
// discarded here, a pinned one by the release of its last pin.
func (st *ingestState) close() {
	st.publish(&servingCut{st: st, tail: st.e})
}

// pin returns the current cut with a reference on each engine it names, so
// both stay mapped until the caller releases the cut — whatever appends and
// compactions publish meanwhile.
func (st *ingestState) pin() *servingCut {
	st.cutMu.Lock()
	defer st.cutMu.Unlock()
	st.retainLocked(st.cut)
	return st.cut
}

// current returns the published cut without pinning it: for the writers,
// which hold mu and are the only ones to replace it, and for counters.
func (st *ingestState) current() *servingCut {
	st.cutMu.Lock()
	defer st.cutMu.Unlock()
	return st.cut
}

// release gives a pinned cut back and discards the engines that nothing
// needs any more, on the calling goroutine.
func (c *servingCut) release() {
	st := c.st
	if st == nil {
		return
	}
	st.cutMu.Lock()
	dead := st.dropLocked(c)
	st.cutMu.Unlock()
	discardEngines(dead)
}

// publish makes c the current cut and gives up the reference the previous
// one held.  Its callers hold mu, or own the state alone (construction,
// close).
func (st *ingestState) publish(c *servingCut) {
	st.cutMu.Lock()
	old := st.cut
	st.cut = c
	st.retainLocked(c) // before the drop: a tail both cuts name never reads zero
	var dead []*Engine
	if old != nil {
		dead = st.dropLocked(old)
	}
	st.cutMu.Unlock()
	discardEngines(dead)
}

// retainLocked takes one reference on each engine c names.
func (st *ingestState) retainLocked(c *servingCut) {
	st.refs[c.tail]++
	if c.delta != nil {
		st.refs[c.delta]++
	}
}

// dropLocked gives back one reference on each engine c names and returns
// those left with none, already out of refs, for the caller to discard once
// it has let go of cutMu.
func (st *ingestState) dropLocked(c *servingCut) []*Engine {
	var dead []*Engine
	for _, e := range [...]*Engine{c.tail, c.delta} {
		if e == nil {
			continue
		}
		if st.refs[e]--; st.refs[e] == 0 {
			delete(st.refs, e)
			dead = append(dead, e)
		}
	}
	return dead
}

// discardEngines closes engines no cut names and no pin holds.  They are
// tails and deltas, each on a device of its own that nothing else can reach.
func discardEngines(dead []*Engine) {
	for _, e := range dead {
		_ = e.Close() // a serving engine persists nothing; its Discard error says nothing a caller could act on
	}
}

// deltaOptions derives the configuration for the small serving engines built
// over delta snapshots and compacted merges: same medium, cost model, and
// analytics configuration as the base, default persistence (these engines
// are rebuilt from the durable log, never recovered in place).
func (e *Engine) deltaOptions() Options {
	return Options{
		Kind:      e.opts.Kind,
		Model:     e.opts.Model,
		Strategy:  e.opts.Strategy,
		Sequences: e.opts.Sequences,
	}
}

// publishDelta snapshots the delta builder into a fresh engine and publishes
// the cut that serves it beside tail (caller holds mu).
func (st *ingestState) publishDelta(tail *Engine, compacted uint32) error {
	c := &servingCut{st: st, tail: tail, compacted: compacted}
	if g := st.db.Grammar(); g != nil {
		eng, err := New(g, st.e.d, st.e.deltaOptions())
		if err != nil {
			return fmt.Errorf("core: build delta engine: %w", err)
		}
		c.delta, c.deltaDocs = eng, g.NumFiles
	}
	st.publish(c)
	return nil
}

// encodeAppendRecord frames one batch for the durable log.
func encodeAppendRecord(globalBase, vocabAfter uint32, novel []string, docs []AppendDoc) []byte {
	n := 12
	for _, w := range novel {
		n += 4 + len(w)
	}
	n += 4
	for _, d := range docs {
		n += 4 + len(d.Name) + 4 + 4*len(d.Tokens)
	}
	buf := make([]byte, 8, 8+n)
	u32 := func(v uint32) {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	u32(globalBase)
	u32(vocabAfter)
	u32(uint32(len(novel)))
	for _, w := range novel {
		u32(uint32(len(w)))
		buf = append(buf, w...)
	}
	u32(uint32(len(docs)))
	for _, d := range docs {
		u32(uint32(len(d.Name)))
		buf = append(buf, d.Name...)
		u32(uint32(len(d.Tokens)))
		for _, t := range d.Tokens {
			u32(t)
		}
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// decodeAppendRecord parses one framed record; rec starts at the length
// word.  Returns the batch and the total framed size consumed.
func decodeAppendRecord(rec []byte) (IngestBatch, int64, error) {
	var b IngestBatch
	if len(rec) < 8 {
		return b, 0, fmt.Errorf("core: append record truncated (%d bytes)", len(rec))
	}
	ln := binary.LittleEndian.Uint32(rec[0:4])
	crc := binary.LittleEndian.Uint32(rec[4:8])
	if int(ln) > len(rec)-8 {
		return b, 0, fmt.Errorf("core: append record length %d beyond committed log", ln)
	}
	p := rec[8 : 8+ln]
	if crc32.ChecksumIEEE(p) != crc {
		return b, 0, fmt.Errorf("core: append record checksum mismatch")
	}
	pos := 0
	u32 := func() (uint32, error) {
		if pos+4 > len(p) {
			return 0, fmt.Errorf("core: append record underrun at %d", pos)
		}
		v := binary.LittleEndian.Uint32(p[pos : pos+4])
		pos += 4
		return v, nil
	}
	str := func() (string, error) {
		n, err := u32()
		if err != nil {
			return "", err
		}
		if pos+int(n) > len(p) {
			return "", fmt.Errorf("core: append record string underrun at %d", pos)
		}
		s := string(p[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	var err error
	var base, vocab, nNovel, nDocs uint32
	if base, err = u32(); err != nil {
		return b, 0, err
	}
	if vocab, err = u32(); err != nil {
		return b, 0, err
	}
	if nNovel, err = u32(); err != nil {
		return b, 0, err
	}
	b.GlobalBase, b.Vocab = base, vocab
	b.Novel = make([]string, 0, nNovel)
	for i := uint32(0); i < nNovel; i++ {
		w, err := str()
		if err != nil {
			return b, 0, err
		}
		b.Novel = append(b.Novel, w)
	}
	if nDocs, err = u32(); err != nil {
		return b, 0, err
	}
	b.Docs = make([]AppendDoc, 0, nDocs)
	for i := uint32(0); i < nDocs; i++ {
		name, err := str()
		if err != nil {
			return b, 0, err
		}
		nTok, err := u32()
		if err != nil {
			return b, 0, err
		}
		if pos+4*int(nTok) > len(p) {
			return b, 0, fmt.Errorf("core: append record token underrun at %d", pos)
		}
		toks := make([]uint32, nTok)
		for j := range toks {
			toks[j] = binary.LittleEndian.Uint32(p[pos : pos+4])
			pos += 4
		}
		b.Docs = append(b.Docs, AppendDoc{Name: name, Tokens: toks})
	}
	return b, int64(8 + ln), nil
}

// decodeAppendLog decodes the committed prefix of the append-log region acc,
// in commit order.
func decodeAppendLog(acc nvm.Accessor, committed int64) ([]IngestBatch, error) {
	raw := make([]byte, committed)
	acc.ReadBytes(ingestHeaderSize, raw)
	var bs []IngestBatch
	for pos := int64(0); pos < committed; {
		b, n, err := decodeAppendRecord(raw[pos:])
		if err != nil {
			return nil, fmt.Errorf("append log at %d: %v", pos, err)
		}
		bs = append(bs, b)
		pos += n
	}
	return bs, nil
}

// AppendAt appends a batch of documents to the shard: the record is made
// durable in the append log (body first, then the watermark commit), the
// delta grammar is extended, and a cut with its fresh snapshot is published.
// globalBase is the global index of the batch's first document — the shard
// set routes whole batches to one shard and numbers documents globally
// across shards.  vocab is the vocabulary size after interning the batch;
// novel lists the words the batch interned, in ID order.
func (e *Engine) AppendAt(docs []AppendDoc, vocab uint32, novel []string, globalBase uint32) error {
	st := e.ingest
	if st == nil {
		return ErrNoIngest
	}
	if len(docs) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.compacting {
		return ErrCompacting
	}
	// The batch's pre-interning vocabulary (vocab - len(novel)) must cover
	// this engine's last committed vocabulary.  Equality is deliberately not
	// required: inside a sharded set the shared dictionary grows across all
	// shards, so a shard's recorded vocabulary lags the global one.
	if vocab < st.vocab || uint64(len(novel)) > uint64(vocab) ||
		vocab-uint32(len(novel)) < st.vocab {
		return errEngine("append", fmt.Errorf("vocabulary %d with %d novel words does not extend %d",
			vocab, len(novel), st.vocab))
	}
	for _, d := range docs {
		for _, t := range d.Tokens {
			if t >= vocab {
				return errEngine("append", fmt.Errorf("token %d beyond vocabulary %d", t, vocab))
			}
		}
	}
	rec := encodeAppendRecord(globalBase, vocab, novel, docs)
	if st.committed+int64(len(rec)) > st.cap {
		return ErrIngestFull
	}
	// Durability protocol: write and drain the record body, then move the
	// committed watermark with one 8-byte store, flushed and drained.  The
	// body is invisible until the watermark covers it, and the watermark is
	// the only header word an append stores, so whichever of the stores the
	// cache writes back early, a crash anywhere leaves either the previous
	// committed state or the new one.
	off := ingestHeaderSize + st.committed
	st.acc.WriteBytes(off, rec)
	if err := st.acc.Flush(off, int64(len(rec))); err != nil {
		return errEngine("append", err)
	}
	if err := e.dev.Drain(); err != nil {
		return errEngine("append", err)
	}
	st.acc.PutUint64(ingOffCommitted, uint64(st.committed+int64(len(rec))))
	if err := st.acc.Flush(ingOffCommitted, 8); err != nil {
		return errEngine("append", err)
	}
	if err := e.dev.Drain(); err != nil {
		return errEngine("append", err)
	}
	st.committed += int64(len(rec))
	st.batches++
	st.docs += uint64(len(docs))
	st.vocab = vocab

	// Serving: extend the delta grammar and publish its snapshot beside the
	// tail the current cut names.
	for _, d := range docs {
		if err := st.db.AppendDoc(d.Tokens, vocab); err != nil {
			return errEngine("append", err)
		}
	}
	cur := st.current()
	if err := st.publishDelta(cur.tail, cur.compacted); err != nil {
		return err
	}
	st.epoch.Add(1)
	return nil
}

// beginCompaction claims the shard's one compaction slot and returns the
// merge's inputs: the tail's grammar and a snapshot of the delta's, which
// stays the whole delta because appends are refused until the slot is given
// back.  A nil snapshot claims nothing: there is nothing to compact.
func (st *ingestState) beginCompaction() (base, dg *cfg.Grammar, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.compacting {
		return nil, nil, ErrCompacting
	}
	if st.baseG == nil {
		return nil, nil, ErrNoBaseGrammar
	}
	dg = st.db.Grammar()
	st.compacting = dg != nil
	return st.baseG, dg, nil
}

// compact merges the delta grammar into the tail's and publishes the merged
// engine as the tail of a cut with no delta (see ShardedEngine.Compact).
func (st *ingestState) compact() error {
	base, dg, err := st.beginCompaction()
	if err != nil || dg == nil {
		return err
	}
	merged, err := cfg.MergeDelta(base, dg)
	var ne *Engine
	if err == nil {
		ne, err = New(merged, st.e.d, st.e.deltaOptions())
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.compacting = false
	if err != nil {
		return errEngine("compact", err)
	}
	// Swap: the merged engine holds every appended document, the builder
	// starts over on top of it, and the cut this one replaces goes — tail and
	// delta engine with it — once its last pin does.
	ne.dev.Share()
	st.baseG = merged
	st.db = newDeltaBuilder(ne.numWords, merged)
	st.publish(&servingCut{st: st, tail: ne, compacted: st.current().compacted + dg.NumFiles})
	st.compactions++
	st.epoch.Add(1)
	return nil
}

// CorpusEpoch returns the engine's corpus epoch: it advances on every
// committed append and every compaction, and serving layers key caches by
// it.  Zero for engines without ingestion.
func (e *Engine) CorpusEpoch() uint64 {
	if e.ingest == nil {
		return 0
	}
	return e.ingest.epoch.Load()
}

// IngestBatches returns the committed append batches in commit order — the
// durable history recovery replays, decoded from the log for coordinators
// and tooling.
func (e *Engine) IngestBatches() []IngestBatch {
	st := e.ingest
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, err := decodeAppendLog(st.acc, st.committed)
	if err != nil {
		// AppendAt framed every committed record, or recovery checked it.
		panic("core: committed " + err.Error())
	}
	return bs
}

// IngestStats reports the engine's ingestion state; zero value when the
// engine was built without ingestion.
func (e *Engine) IngestStats() IngestStats {
	st := e.ingest
	if st == nil {
		return IngestStats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := IngestStats{
		Batches:     st.batches,
		Docs:        st.docs,
		LogBytes:    st.committed,
		LogCap:      st.cap,
		Compactions: st.compactions,
	}
	st.cutMu.Lock()
	out.CompactedDocs, out.ServingEngines = st.cut.compacted, len(st.refs)
	st.cutMu.Unlock()
	if ds, err := st.db.Stats(); err == nil {
		out.DeltaDocs = ds.Docs
		out.DeltaRules = ds.Rules
		out.DeltaReused = ds.Reused
		out.DeltaSymbols = ds.Symbols
	}
	return out
}

// recoverIngest reattaches the append-log region after Reopen and replays
// every committed record: the delta builder is rebuilt by replaying the
// documents (sequitur inference is deterministic, so the delta grammar is
// bit-identical to the pre-crash one) and published beside the shard engine.
// The base grammar is gone, so compaction is unavailable until the corpus is
// recompressed (ErrNoBaseGrammar).
func (e *Engine) recoverIngest(regionOff int64) error {
	hdr := e.pool.AccessorAt(regionOff, ingestHeaderSize)
	capBytes := int64(hdr.Uint64(ingOffCap))
	if capBytes <= 0 || regionOff+ingestHeaderSize+capBytes > e.pool.Size() {
		return fmt.Errorf("%w: append-log region [%d, +%d) outside pool",
			ErrNeedsReload, regionOff, ingestHeaderSize+capBytes)
	}
	acc := e.pool.AccessorAt(regionOff, ingestHeaderSize+capBytes)
	committed := int64(hdr.Uint64(ingOffCommitted))
	if committed < 0 || committed > capBytes {
		return fmt.Errorf("%w: append-log watermark %d beyond capacity %d",
			ErrNeedsReload, committed, capBytes)
	}
	st := newIngestState(e, acc, nil)
	bs, err := decodeAppendLog(acc, committed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedsReload, err)
	}
	for _, b := range bs {
		for _, d := range b.Docs {
			if err := st.db.AppendDoc(d.Tokens, b.Vocab); err != nil {
				return fmt.Errorf("%w: replay append: %v", ErrNeedsReload, err)
			}
		}
		st.vocab = b.Vocab
		st.docs += uint64(len(b.Docs))
	}
	st.committed, st.batches = committed, uint64(len(bs))
	st.epoch.Store(st.batches)
	e.ingest = st
	return st.publishDelta(e, 0)
}

// restoreVocabulary re-interns the novel words of the given batches (already
// sorted by GlobalBase — global append order) into d, verifying each word
// lands on the ID the durable record assigned.  A dictionary that already
// contains the words (a reopen with the archive's dictionary) verifies
// silently; a fresh dictionary is extended deterministically.
func restoreVocabulary(d *dict.Dictionary, batches []IngestBatch) error {
	for _, b := range batches {
		next := b.Vocab - uint32(len(b.Novel))
		for k, w := range b.Novel {
			want := next + uint32(k)
			if got := d.Intern(w); got != want {
				return fmt.Errorf("core: recovered word %q interned at %d, log recorded %d", w, got, want)
			}
		}
	}
	return nil
}
