package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/text-analytics/ntadoc"
	"github.com/text-analytics/ntadoc/internal/cfg"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
	"github.com/text-analytics/ntadoc/internal/pstruct"
	"github.com/text-analytics/ntadoc/internal/sequitur"
)

// Sizing of the ingest probe: a fixed number of batches, so its counts
// repeat exactly for a seed.
const (
	probeBatches     = 40
	probeDocTokens   = 90 // dataset B's mean document
	probeCompactEach = 10 // batches between forced compactions
)

// ingestBatches returns the append batches of the ingest probe as token
// documents: the corpus's own appended documents where the workload has
// them, else documents cut from the head of the corpus's token stream (shorter
// ones when a -quick corpus could not fill two batches otherwise).
func ingestBatches(c *corpus, base int) [][][]uint32 {
	var docs [][]uint32
	if len(c.Files) > base {
		docs = c.Files[base:]
	} else {
		docLen := min(probeDocTokens, int(c.tokens(0, base))/(2*appendBatch))
		for _, f := range c.Files {
			for docLen > 0 && len(f) >= docLen && len(docs) < probeBatches*appendBatch {
				docs = append(docs, f[:docLen])
				f = f[docLen:]
			}
		}
	}
	var batches [][][]uint32
	for len(docs) >= appendBatch && len(batches) < probeBatches {
		batches = append(batches, docs[:appendBatch])
		docs = docs[appendBatch:]
	}
	return batches
}

// ingestProbe times the write path's layers in this process: Engine.Append
// and Engine.Compact on an ingest-enabled engine over the archive, and the
// tokenizer, delta builder and grammar merge on the same documents.
func ingestProbe(c *corpus, base int, archive []byte, baseGrammar *cfg.Grammar, obs *observations) error {
	batches := ingestBatches(c, base)
	if len(batches) == 0 {
		return fmt.Errorf("bench: corpus too small for the ingest probe")
	}
	a, err := ntadoc.ReadArchive(bytes.NewReader(archive))
	if err != nil {
		return err
	}
	eng, err := ntadoc.NewEngine(a, ntadoc.Options{IngestCapacity: ingestLogCap})
	if err != nil {
		return err
	}
	defer eng.Close()

	var texts []string
	var textBytes, tokens int64
	log0 := eng.IngestStats().LogBytes
	for bi, batch := range batches {
		docs := make([]ntadoc.Document, len(batch))
		for i, toks := range batch {
			ws := make([]string, len(toks))
			for j, id := range toks {
				ws[j] = c.Words[id]
			}
			docs[i] = ntadoc.Document{Name: fmt.Sprintf("probe%03d-%d", bi, i), Text: strings.Join(ws, " ")}
			texts = append(texts, docs[i].Text)
			textBytes += int64(len(docs[i].Text))
			tokens += int64(len(toks))
		}
		flushes := eng.DeviceCounters().Flushes
		t := time.Now()
		if err := eng.Append(docs); err != nil {
			return fmt.Errorf("bench: ingest probe append %d: %w", bi, err)
		}
		obs.add("core.append_us", us(time.Since(t)))
		obs.add("core.append_flushes", float64(eng.DeviceCounters().Flushes-flushes))
		if (bi+1)%probeCompactEach == 0 || bi == len(batches)-1 {
			t = time.Now()
			if err := eng.Compact(); err != nil {
				return fmt.Errorf("bench: ingest probe compact: %w", err)
			}
			obs.add("core.compact_ms", ms(time.Since(t)))
		}
	}
	obs.add("core.append_log_amp", float64(eng.IngestStats().LogBytes-log0)/float64(textBytes))

	d := dict.New()
	for _, w := range c.Words {
		d.Intern(w)
	}
	var tk dict.Tokenizer
	t := time.Now()
	for _, text := range texts {
		tk.EncodeString(d, text)
	}
	obs.add("dict.tokenize_mtok_s", float64(tokens)/1e6/time.Since(t).Seconds())

	db, err := sequitur.NewDeltaBuilder(uint32(len(c.Words)), nil)
	if err != nil {
		return err
	}
	t = time.Now()
	for _, batch := range batches {
		for _, toks := range batch {
			if err := db.AppendDoc(toks, uint32(len(c.Words))); err != nil {
				return err
			}
		}
	}
	obs.add("sequitur.delta_append_mtok_s", float64(tokens)/1e6/time.Since(t).Seconds())

	t = time.Now()
	if _, err := cfg.MergeDelta(baseGrammar, db.Grammar()); err != nil {
		return fmt.Errorf("bench: merge delta: %w", err)
	}
	obs.add("cfg.merge_delta_ms", ms(time.Since(t)))
	return nil
}

// perOp is the mean host nanoseconds of n operations since start.
func perOp(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// storageProbes runs seeded, fixed-count micro-probes on the storage layers
// over a fresh simulated NVM device: the accessor's reads and writes, the
// pool's transactions and allocator, the pool hash table and vector.
func storageProbes(seed int64, obs *observations) error {
	const region = 32 << 20
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int64, probeOps)
	for i := range offs {
		offs[i] = rng.Int63n(region/8) * 8
	}
	keys := make([]uint64, probeOps)
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
	}

	dev := nvm.New(nvm.KindNVM, region)
	defer dev.Close()
	acc := nvm.NewAccessor(dev, 0, region)
	var sink uint64

	t := time.Now()
	for i := 0; i < probeOps; i++ {
		acc.PutUint64(int64(i)*8, uint64(i))
	}
	obs.add("nvm.write_seq_ns", perOp(t, probeOps))

	s0 := dev.Stats()
	t = time.Now()
	for _, off := range offs {
		acc.PutUint64(off, uint64(off))
	}
	obs.add("nvm.write_rand_ns", perOp(t, probeOps))
	obs.add("nvm.modeled_write_rand_ns", float64(dev.Stats().Sub(s0).ModeledNanos)/probeOps)

	t = time.Now()
	for _, off := range offs[:probeOps/16] {
		acc.PutUint64(off, 1)
		if err := acc.Flush(off, 8); err != nil {
			return err
		}
		if err := dev.Drain(); err != nil {
			return err
		}
	}
	obs.add("nvm.flush_ns", perOp(t, probeOps/16))

	t = time.Now()
	for i := 0; i < probeOps; i++ {
		sink += acc.Uint64(int64(i) * 8)
	}
	obs.add("nvm.read_seq_ns", perOp(t, probeOps))

	s0 = dev.Stats()
	t = time.Now()
	for _, off := range offs {
		sink += acc.Uint64(off)
	}
	obs.add("nvm.read_rand_ns", perOp(t, probeOps))
	ds := dev.Stats().Sub(s0)
	obs.add("nvm.modeled_read_rand_ns", float64(ds.ModeledNanos)/probeOps)
	obs.add("nvm.cache_hit_ratio_rand", float64(ds.CacheHits)/float64(ds.CacheHits+ds.CacheMisses))

	const batchWords = 512
	words := make([]uint64, batchWords)
	t = time.Now()
	for i := 0; i < probeOps/batchWords*8; i++ {
		acc.ReadU64s(offs[i]%(region-batchWords*8), words)
		sink += words[0]
	}
	obs.add("nvm.read_batch_ns_per_word", perOp(t, probeOps*8))

	pdev := nvm.New(nvm.KindNVM, region)
	defer pdev.Close()
	pool, err := pmem.Create(pdev, pmem.Options{})
	if err != nil {
		return err
	}
	t = time.Now()
	var cell nvm.Accessor
	for i := 0; i < probeTxs; i++ {
		if cell, err = pool.Alloc(64, 8); err != nil {
			return err
		}
	}
	obs.add("pmem.alloc_ns", perOp(t, probeTxs))

	s0 = pdev.Stats()
	t = time.Now()
	for i := 0; i < probeTxs; i++ {
		tx, err := pool.Begin()
		if err != nil {
			return err
		}
		for k := int64(0); k < 4; k++ {
			if err := tx.WriteUint64(cell.Base()+k*8, uint64(i)); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	obs.add("pmem.tx_commit_ns", perOp(t, probeTxs))
	ds = pdev.Stats().Sub(s0)
	obs.add("pmem.tx_flushes", float64(ds.Flushes)/probeTxs)
	obs.add("pmem.tx_write_amp", float64(ds.BytesWritten)/(probeTxs*4*8))

	ht, err := pstruct.NewHashTable(pool, probeOps)
	if err != nil {
		return err
	}
	t = time.Now()
	for _, k := range keys {
		if _, err := ht.Add(k, 1); err != nil {
			return err
		}
	}
	obs.add("pstruct.ht_add_ns", perOp(t, probeOps))
	s0 = pdev.Stats()
	t = time.Now()
	for _, k := range keys {
		v, err := ht.Get(k)
		if err != nil {
			return err
		}
		sink += v
	}
	obs.add("pstruct.ht_get_ns", perOp(t, probeOps))
	obs.add("pstruct.ht_granule_reads_per_get", float64(pdev.Stats().Sub(s0).GranuleReads)/probeOps)

	vec, err := pstruct.NewVector(pool, probeOps)
	if err != nil {
		return err
	}
	t = time.Now()
	for _, k := range keys {
		if err := vec.Append(k); err != nil {
			return err
		}
	}
	obs.add("pstruct.vec_append_ns", perOp(t, probeOps))
	probeSink = sink
	return nil
}

// probeSink keeps the probes' reads observable, so the loops stay.
var probeSink uint64
