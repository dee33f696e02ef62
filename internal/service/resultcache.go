package service

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	hotpotato "repro"
)

// DefaultResultCacheEntries bounds the result cache when
// Config.ResultCacheEntries is zero.
const DefaultResultCacheEntries = 256

// ResultCache is a bounded LRU + singleflight cache of finished simulation
// results, keyed by hotpotato.SpecHash. The simulation is deterministic in
// its canonical spec, so a cached Result is bit-identical to a fresh run
// (host-time fields aside, which the cache does not store meaningfully) and
// never goes stale — entries leave only by LRU eviction.
//
// Singleflight follows the hotpotato.PlatformCache pattern: the first
// requester of a hash becomes the leader and runs the simulation; concurrent
// requesters for the same hash block on the entry until the leader fulfills
// or abandons it. Abandonment (the leader's run failed with a non-cacheable
// error, e.g. its client disconnected) wakes followers with ok=false and
// they fall back to running the spec themselves — a canceled leader must not
// poison the cell for everyone behind it.
//
// Only two outcomes are cached: clean completions and MaxTime stops (a
// deterministic property of the spec, replayed with the ErrTimeout identity
// intact via cachedError). Everything else is transient and never stored.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*resultEntry
	// lru orders fulfilled entries, front = most recently used. Pending
	// (in-flight) entries live only in the map so they can never be evicted
	// mid-build.
	lru   *list.List
	bytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	abandoned atomic.Int64
}

// resultEntry is one singleflight slot: the leader fulfills (or abandons),
// followers block on ready.
type resultEntry struct {
	hash  string
	ready chan struct{}

	// Written by the leader before close(ready), read-only after.
	res       *hotpotato.Result
	errMsg    string // non-empty: the run hit MaxTime; replayed as cachedError
	abandoned bool
	bytes     int64
	elem      *list.Element // nil while pending or abandoned
}

// NewResultCache returns an empty cache bounded to maxEntries fulfilled
// results (maxEntries <= 0 means DefaultResultCacheEntries).
func NewResultCache(maxEntries int) *ResultCache {
	if maxEntries <= 0 {
		maxEntries = DefaultResultCacheEntries
	}
	return &ResultCache{
		max:     maxEntries,
		entries: make(map[string]*resultEntry),
		lru:     list.New(),
	}
}

// Lookup finds or creates the entry for hash. leader=true means the caller
// owns the slot: it must run the simulation and then call exactly one of
// Fulfill or Abandon, or followers block forever. leader=false means the
// entry is fulfilled or in flight — call Wait.
func (c *ResultCache) Lookup(hash string) (e *resultEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[hash]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	e = &resultEntry{hash: hash, ready: make(chan struct{})}
	c.entries[hash] = e
	c.misses.Add(1)
	metricResultCacheMisses.Inc()
	return e, true
}

// Wait blocks until the entry is fulfilled, abandoned, or ctx is done. On
// ok=true the cached outcome is valid: res plus errMsg ("" for a clean run,
// the timeout text for a MaxTime stop). ok=false means no cached outcome
// exists (abandoned or ctx expired) and the caller should run the spec
// itself, uncached.
func (e *resultEntry) Wait(ctx context.Context) (res *hotpotato.Result, errMsg string, ok bool) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, "", false
	}
	if e.abandoned {
		return nil, "", false
	}
	return e.res, e.errMsg, true
}

// Fulfill publishes the leader's outcome, inserts the entry into the LRU
// order, and evicts the least-recently-used surplus.
func (c *ResultCache) Fulfill(hash string, res *hotpotato.Result, errMsg string) {
	size := approxResultBytes(res)
	c.mu.Lock()
	e, ok := c.entries[hash]
	if !ok || e.elem != nil {
		c.mu.Unlock()
		return
	}
	e.res, e.errMsg, e.bytes = res, errMsg, size
	e.elem = c.lru.PushFront(e)
	c.bytes += size
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		victim := oldest.Value.(*resultEntry)
		c.lru.Remove(oldest)
		delete(c.entries, victim.hash)
		c.bytes -= victim.bytes
		c.evictions.Add(1)
		metricResultCacheEvictions.Inc()
	}
	bytes := c.bytes
	c.mu.Unlock()
	metricResultCacheBytes.Set(float64(bytes))
	close(e.ready)
}

// Abandon releases a pending slot without caching anything; followers wake
// with ok=false and run the spec themselves.
func (c *ResultCache) Abandon(hash string) {
	c.mu.Lock()
	e, ok := c.entries[hash]
	if !ok || e.elem != nil {
		c.mu.Unlock()
		return
	}
	e.abandoned = true
	delete(c.entries, hash)
	c.mu.Unlock()
	close(e.ready)
}

// RecordHit counts one lookup served from the cache. Separated from Lookup
// because a follower only knows it was served after Wait reports ok — an
// abandoned slot must not count as a hit.
func (c *ResultCache) RecordHit() {
	c.hits.Add(1)
	metricResultCacheHits.Inc()
}

// RecordAbandonedFallback counts a follower whose leader abandoned the slot:
// the follower re-ran the spec uncached. That run is a miss (the cache did
// not serve it) — Lookup only counted the leader's miss, so without this the
// fallback would vanish from the hit/miss ledger entirely and the hit ratio
// would overstate the cache. The dedicated abandoned counter additionally
// makes leader churn (disconnect-heavy clients) visible on its own.
func (c *ResultCache) RecordAbandonedFallback() {
	c.misses.Add(1)
	metricResultCacheMisses.Inc()
	c.abandoned.Add(1)
	metricResultCacheAbandoned.Inc()
}

// AbandonedFallbacks returns how many followers fell back to an uncached run
// after their leader abandoned the slot.
func (c *ResultCache) AbandonedFallbacks() int64 { return c.abandoned.Load() }

// Len returns how many fulfilled results are cached.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the approximate encoded size of all cached results.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns lifetime hit / miss / eviction counts.
func (c *ResultCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// approxResultBytes sizes a result by its JSON encoding — the same form it
// is served in, so the bytes gauge tracks real response weight.
func approxResultBytes(res *hotpotato.Result) int64 {
	if res == nil {
		return 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// cachedError replays a MaxTime stop stored in the result cache. The live
// error chain (fmt.Errorf wrapping sim.ErrTimeout) is not serializable, so
// the cache stores only its text; this type restores the errors.Is identity
// clients and handlers branch on. Only timeout outcomes are ever cached —
// every other error is transient (cancellation) or already rejected before
// execution — so ErrTimeout is the only identity to restore.
type cachedError struct{ msg string }

func (e cachedError) Error() string { return e.msg }

func (e cachedError) Is(target error) bool { return target == hotpotato.ErrTimeout }
