// Package uncomp implements the paper's Fig 5 baseline: text analytics over
// uncompressed, dictionary-encoded tokens resident on a storage device (NVM
// in the headline comparison).  No compression technique is applied beyond
// the dictionary conversion, matching the paper's baseline configuration;
// every task is a sequential scan of the token stream with intermediate
// results in ordinary DRAM structures.  Tasks plug in as analytics.Op folds:
// RunOps makes one pass over the device-resident tokens and feeds every op
// in the batch from the same scan, so a fused batch reads each token once
// where sequential runs read it once per task.
package uncomp

import (
	"fmt"

	"github.com/text-analytics/ntadoc/internal/analytics"
	"github.com/text-analytics/ntadoc/internal/dict"
	"github.com/text-analytics/ntadoc/internal/metrics"
	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Engine scans device-resident tokens.  It implements analytics.Executor.
type Engine struct {
	dev   *nvm.SimDevice
	d     *dict.Dictionary
	acc   nvm.Accessor
	offs  []int64 // token offset of each file's start; offs[len] = total
	meter metrics.Meter
	folds analytics.FoldScratch

	scanBuf []uint32        // scanFile scratch, reused across files
	seqs    []analytics.Seq // the run's windows by sequence key
}

var _ analytics.Executor = (*Engine)(nil)

// tokenBytes is the stored width of one token.
const tokenBytes = 4

// RequiredSize returns the device bytes needed to load the given corpus.
func RequiredSize(files [][]uint32) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f))
	}
	return n * tokenBytes
}

// Load writes the corpus onto the device and returns an engine over it.
// This is the baseline's initialization phase: the dictionary-encoded text
// is written sequentially to the device and flushed.
func Load(dev *nvm.SimDevice, d *dict.Dictionary, files [][]uint32) (*Engine, error) {
	need := RequiredSize(files)
	if dev.Size() < need {
		return nil, fmt.Errorf("uncomp: device %d bytes, need %d", dev.Size(), need)
	}
	e := &Engine{
		dev:  dev,
		d:    d,
		acc:  nvm.NewAccessor(dev, 0, need),
		offs: make([]int64, len(files)+1),
	}
	var tok int64
	for i, f := range files {
		e.offs[i] = tok
		// Write in chunks to keep allocation bounded.
		const chunk = 1 << 14
		for start := 0; start < len(f); start += chunk {
			end := start + chunk
			if end > len(f) {
				end = len(f)
			}
			e.acc.PutUint32s((tok+int64(start))*tokenBytes, f[start:end])
		}
		tok += int64(len(f))
	}
	e.offs[len(files)] = tok
	e.meter.Charge(tok, metrics.CostScanToken)
	if need > 0 {
		if err := e.acc.Flush(0, need); err != nil {
			return nil, err
		}
	}
	return e, dev.Drain()
}

// NumFiles returns the number of loaded documents.
func (e *Engine) NumFiles() int { return len(e.offs) - 1 }

// TotalTokens returns the corpus length in tokens.
func (e *Engine) TotalTokens() int64 { return e.offs[len(e.offs)-1] }

// scanFile streams file fi's tokens in batches to fn.
func (e *Engine) scanFile(fi int, fn func(tokens []uint32)) {
	start, end := e.offs[fi], e.offs[fi+1]
	const batch = 1 << 13
	if e.scanBuf == nil {
		e.scanBuf = make([]uint32, batch)
	}
	buf := e.scanBuf
	for pos := start; pos < end; pos += batch {
		n := end - pos
		if n > batch {
			n = batch
		}
		e.acc.Uint32s(pos*tokenBytes, buf[:n])
		fn(buf[:n])
	}
}

// numWindows returns how many SeqLen-windows file fi emits.
func (e *Engine) numWindows(fi int) int64 {
	n := e.offs[fi+1] - e.offs[fi] - analytics.SeqLen + 1
	if n < 0 {
		return 0
	}
	return n
}

// opEnv adapts the engine to analytics.ScratchEnv.
type opEnv struct{ e *Engine }

func (v opEnv) Dict() *dict.Dictionary              { return v.e.d }
func (v opEnv) NumFiles() int                       { return v.e.NumFiles() }
func (v opEnv) SeqOf(k uint64) analytics.Seq        { return v.e.seqs[k] }
func (v opEnv) Charge(n, perOp int64)               { v.e.meter.Charge(n, perOp) }
func (v opEnv) FoldScratch() *analytics.FoldScratch { return &v.e.folds }

// tally is one scan accumulator and the counter folds are handed: a count per
// key in a key-indexed array, touched listing the counted keys in order of
// first occurrence.
type tally struct {
	vals    []uint64
	touched []uint32
}

func (c *tally) add(k uint32) {
	for int(k) >= len(c.vals) {
		c.vals = append(c.vals, 0)
	}
	if c.vals[k] == 0 {
		c.touched = append(c.touched, k)
	}
	c.vals[k]++
}

// reset zeroes what the tally counted.
func (c *tally) reset() {
	for _, k := range c.touched {
		c.vals[k] = 0
	}
	c.touched = c.touched[:0]
}

func (c *tally) Len() int64 { return int64(len(c.touched)) }
func (c *tally) Range(fn func(k, v uint64) bool) {
	for _, k := range c.touched {
		if !fn(uint64(k), c.vals[k]) {
			return
		}
	}
}

// newTally returns a tally over size keys when the batch needs the keys
// counted at scope, nil otherwise.
func newTally(b *analytics.Batch, scope analytics.Scope, keys analytics.KeySpace, size int) *tally {
	if !b.Needs(scope, keys) {
		return nil
	}
	return &tally{vals: make([]uint64, size)}
}

// RunOps implements analytics.Executor with one fused pass: every op in the
// batch is fed from the same token scan.  Per-token CPU work is charged per
// accumulator (each op class still hashes every token), but the scan itself
// — and with it the modeled device traffic — happens once for the whole
// batch instead of once per task.  A window's sequence key is a dense id
// handed out in order of first occurrence in the scan, so the run's keys
// never depend on map order; the corpus's window count bounds them.
func (e *Engine) RunOps(ops []analytics.Op) ([]any, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	e.folds.Reset()
	e.folds.WordOrder.Rank, e.folds.WordOrder.Order = e.d.Alphabetical()
	e.folds.WordKeys = len(e.folds.WordOrder.Rank)
	e.folds.SeqKeys = 0
	for fi := 0; fi < e.NumFiles(); fi++ {
		e.folds.SeqKeys += int(e.numWindows(fi))
	}
	e.seqs = e.seqs[:0]
	b := analytics.NewBatch(ops, opEnv{e})

	// Counting goes through key-indexed arrays rather than maps; the
	// charged hash-op cost per token is unchanged — only host wall-clock
	// differs.
	gw := newTally(b, analytics.ScopeGlobal, analytics.KeyWords, e.d.Len())
	fw := newTally(b, analytics.ScopePerFile, analytics.KeyWords, e.d.Len())
	gs := newTally(b, analytics.ScopeGlobal, analytics.KeySequences, 0)
	fs := newTally(b, analytics.ScopePerFile, analytics.KeySequences, 0)
	ids := make(map[analytics.Seq]uint32)
	// Each word-keyed accumulator costs one hash op per token; the scan-token
	// cost is charged once per token regardless of batch width.
	wordAccums := int64(0)
	if gw != nil {
		wordAccums++
	}
	if fw != nil {
		wordAccums++
	}

	for fi := 0; fi < e.NumFiles(); fi++ {
		// Rolling window state, maintained across scan batches.
		var q analytics.Seq
		warm := 0
		e.scanFile(fi, func(toks []uint32) {
			e.meter.Charge(int64(len(toks)), metrics.CostScanToken)
			if wordAccums > 0 {
				e.meter.Charge(int64(len(toks))*wordAccums, metrics.CostHashOp)
			}
			for _, w := range toks {
				if gw != nil {
					gw.add(w)
				}
				if fw != nil {
					fw.add(w)
				}
				if gs == nil && fs == nil {
					continue
				}
				copy(q[:], q[1:])
				q[analytics.SeqLen-1] = w
				if warm++; warm < analytics.SeqLen {
					continue
				}
				id, ok := ids[q]
				if !ok {
					id = uint32(len(e.seqs))
					ids[q] = id
					e.seqs = append(e.seqs, q)
				}
				if gs != nil {
					gs.add(id)
				}
				if fs != nil {
					fs.add(id)
				}
			}
		})
		// One charge per file covers every emitted window: Charge is linear
		// in its op count, so this equals per-window charges.
		if gs != nil {
			e.meter.Charge(e.numWindows(fi), metrics.CostSeqOp)
		}
		if fs != nil {
			e.meter.Charge(e.numWindows(fi), metrics.CostSeqOp+metrics.CostHashOp)
		}
		if fw != nil {
			if err := b.File(analytics.KeyWords, uint32(fi), fw); err != nil {
				return nil, err
			}
			fw.reset()
		}
		if fs != nil {
			if err := b.File(analytics.KeySequences, uint32(fi), fs); err != nil {
				return nil, err
			}
			fs.reset()
		}
	}

	if gw != nil {
		if err := b.Global(analytics.KeyWords, gw); err != nil {
			return nil, err
		}
	}
	if gs != nil {
		if err := b.Global(analytics.KeySequences, gs); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// Meter exposes the engine's modeled CPU meter for measurement.
func (e *Engine) Meter() *metrics.Meter { return &e.meter }
