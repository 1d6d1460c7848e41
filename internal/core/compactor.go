package core

import "sync"

// The compaction thresholds: an append that leaves its shard's delta holding
// more than compactDeltaDocs documents, or a delta grammar body of more than
// compactDeltaBytes at 8 bytes per symbol, wakes the Compactor.
const (
	compactDeltaDocs  = 64
	compactDeltaBytes = 1 << 20
)

// overThreshold reports whether c's delta crosses either compaction
// threshold.
func overThreshold(c *servingCut) bool {
	return len(c.deltaMap) > compactDeltaDocs || c.deltaSymbols*8 > compactDeltaBytes
}

// Compactor is the background compaction worker: it sleeps until an append
// leaves a shard's delta past the thresholds, then folds every such delta
// into its serving base, so query cost over base+delta stays bounded while
// appends continue.  A failed compaction counts in the target's
// IngestStats().CompactionFailures.
type Compactor struct {
	target *ShardedEngine
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

// StartCompactor launches the worker; Stop shuts it down.  A wake-up an
// append sent before the worker started is taken at once.
func StartCompactor(t *ShardedEngine) *Compactor {
	c := &Compactor{
		target: t,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.loop()
	return c
}

func (c *Compactor) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.target.due:
			//ntalint:ignore persistcheck the worker has no caller to return to: compact counts each shard's failure in IngestStats' CompactionFailures.
			_ = c.target.compact(overThreshold)
		}
	}
}

// Stop shuts the worker down and waits for the in-flight pass, if any, to
// finish.  Idempotent.
func (c *Compactor) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}
