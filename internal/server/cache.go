package server

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache of encoded result bodies keyed by
// (generation, canonical batch signature).  The generation is part of the
// key, so once it advances — a recovery, a committed append, a compaction —
// no entry of the previous generation can ever hit again.  The cache
// therefore remembers the generation it was last read at and drops
// everything when a read arrives with another one, rather than holding
// unreachable bodies until LRU pressure evicts them.
type resultCache struct {
	max int

	mu    sync.Mutex
	gen   string                   // guarded by mu: generation of every entry held
	ll    *list.List               // guarded by mu; front = most recent
	ent   map[string]*list.Element // guarded by mu
	bytes int64                    // guarded by mu: sum of cached body sizes
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), ent: make(map[string]*list.Element)}
}

// get returns the cached body for key, refreshing its recency; gen is the
// generation key was built from, and a new one empties the cache.  The bytes
// are shared and must not be mutated by callers.
func (c *resultCache) get(gen, key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		c.gen = gen
		c.ll.Init()
		clear(c.ent)
		c.bytes = 0
	}
	el, ok := c.ent[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts or refreshes key, evicting the least recently used entry past
// capacity.  A body of another generation than the cache's — a leader that
// started before the generation advanced and finished after — is dropped: it
// could never be read.
func (c *resultCache) put(gen, key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.ent[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		return
	}
	c.ent[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		ent := el.Value.(*cacheEntry)
		delete(c.ent, ent.key)
		c.bytes -= int64(len(ent.body))
	}
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// size reports the total bytes of cached result bodies.
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
