package serve

import (
	"sync"

	"repro/internal/lru"
	"repro/internal/obs"
)

// responseCache is a thread-safe LRU cache from canonical request keys
// to marshaled 200-response bodies. Only successful responses are
// cached: interrupted or failed requests must re-run, since a retry
// with a larger budget may succeed.
type responseCache struct {
	mu  sync.Mutex
	lru *lru.Cache[[]byte]
	rec obs.Recorder
}

func newResponseCache(max int, rec obs.Recorder) *responseCache {
	if max < 1 {
		return nil // disabled; all methods are nil-safe
	}
	return &responseCache{lru: lru.New[[]byte](max), rec: obs.OrNop(rec)}
}

// get returns the cached body for key, marking it most recently used,
// and records a hit or miss. A nil cache always misses silently.
func (c *responseCache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.lru.Get(key)
	if !ok {
		c.rec.Inc(obs.ServeCacheMisses, 1)
		return nil, false
	}
	c.rec.Inc(obs.ServeCacheHits, 1)
	return body, true
}

// put inserts key, evicting the least recently used entry when full.
func (c *responseCache) put(key string, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Put(key, body) {
		c.rec.Inc(obs.ServeCacheEvictions, 1)
	}
}

// len returns the number of cached responses.
func (c *responseCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
