package hotpotato

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide platform-cache counters: every PlatformCache in the process
// sums into them (the server's long-lived cache, each sweep's call-scoped
// one). The service_ prefix predates the cache's move out of the serving
// layer and is kept so dashboards keep their series.
var (
	metricPlatformCacheHits = obs.NewCounter("service_platform_cache_hits_total",
		"Platform cache lookups served from an existing entry.")
	metricPlatformCacheMisses = obs.NewCounter("service_platform_cache_misses_total",
		"Platform cache lookups that built (eigendecomposed) a new platform.")
)

// PlatformCache shares immutable Platforms between runs. Building a
// Platform eigendecomposes its RC thermal model — the design-time half of
// Algorithm 1 and by far the most expensive part of a run on a small chip —
// so every run on the same chip should share one model instead of
// re-factorizing. It is the only place a sweep cell, a served run or a
// prediction gets its platform from.
//
// The cache is keyed by the canonicalized PlatformConfig (a comparable plain
// value; RunSpec.WithDefaults is the canonical form) and leans on the
// documented immutable-after-construction contract of docs/CONCURRENCY.md:
// a cached *Platform may back any number of concurrent runs. Entries live
// as long as the cache does.
type PlatformCache struct {
	mu      sync.Mutex
	entries map[PlatformConfig]*platformEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// platformEntry is a singleflight slot: the first requester builds, everyone
// else blocks on ready.
type platformEntry struct {
	ready chan struct{}
	plat  *Platform
	err   error
}

// NewPlatformCache returns an empty cache.
func NewPlatformCache() *PlatformCache {
	return &PlatformCache{entries: make(map[PlatformConfig]*platformEntry)}
}

// Get returns the shared Platform for cfg, building it exactly once per
// distinct configuration. Concurrent callers with an equal cfg coalesce onto
// a single construction (and a single eigendecomposition); later callers get
// the cached pointer immediately. Construction errors are deterministic in
// cfg, so they are cached too.
func (c *PlatformCache) Get(cfg PlatformConfig) (*Platform, error) {
	c.mu.Lock()
	e, ok := c.entries[cfg]
	if !ok {
		e = &platformEntry{ready: make(chan struct{})}
		c.entries[cfg] = e
		c.mu.Unlock()
		c.misses.Add(1)
		metricPlatformCacheMisses.Inc()
		e.plat, e.err = NewPlatformFromConfig(cfg)
		close(e.ready)
		return e.plat, e.err
	}
	c.mu.Unlock()
	c.hits.Add(1)
	metricPlatformCacheHits.Inc()
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
