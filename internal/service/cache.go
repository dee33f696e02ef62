// Package service is the HTTP/JSON serving layer of the reproduction: it
// turns declarative hotpotato.RunSpec documents into simulation runs on a
// long-lived bounded worker pool, shares eigendecomposed Platforms between requests through a
// cache, and honours request deadlines and disconnects mid-run through
// hotpotato.RunContext.
package service

import (
	"sync"
	"sync/atomic"

	hotpotato "repro"
)

// PlatformCache shares immutable Platforms between requests. Building a
// Platform eigendecomposes its RC thermal model — by far the most expensive
// part of serving a run on a small chip — so concurrent requests for the
// same chip must share one model instead of re-factorizing per request.
//
// The cache is keyed by the canonicalized PlatformConfig (a comparable plain
// value; RunSpec.WithDefaults is the canonical form, and both the JSON
// decoder and ExecuteSpec apply it), and leans on the documented
// immutable-after-construction contract of docs/CONCURRENCY.md: a cached
// *Platform may back any number of concurrent runs.
type PlatformCache struct {
	mu      sync.Mutex
	entries map[hotpotato.PlatformConfig]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is a singleflight slot: the first requester builds, everyone
// else blocks on ready.
type cacheEntry struct {
	ready chan struct{}
	plat  *hotpotato.Platform
	err   error
}

// NewPlatformCache returns an empty cache.
func NewPlatformCache() *PlatformCache {
	return &PlatformCache{entries: make(map[hotpotato.PlatformConfig]*cacheEntry)}
}

// Get returns the shared Platform for cfg, building it exactly once per
// distinct configuration. Concurrent callers with an equal cfg coalesce onto
// a single construction (and a single eigendecomposition); later callers get
// the cached pointer immediately. Construction errors are deterministic in
// cfg, so they are cached too.
func (c *PlatformCache) Get(cfg hotpotato.PlatformConfig) (*hotpotato.Platform, error) {
	c.mu.Lock()
	e, ok := c.entries[cfg]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		c.entries[cfg] = e
		c.mu.Unlock()
		c.misses.Add(1)
		metricCacheMisses.Inc()
		e.plat, e.err = hotpotato.NewPlatformFromConfig(cfg)
		close(e.ready)
		return e.plat, e.err
	}
	c.mu.Unlock()
	c.hits.Add(1)
	metricCacheHits.Inc()
	<-e.ready
	return e.plat, e.err
}

// Len returns the number of distinct configurations cached.
func (c *PlatformCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns how many Get calls were served from the cache (hits) and how
// many triggered a construction (misses).
func (c *PlatformCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
