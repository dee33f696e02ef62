package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	hotpotato "repro"
)

func TestResultCacheLRUBound(t *testing.T) {
	c := NewResultCache(2)
	res := &hotpotato.Result{Scheduler: "hotpotato"}
	for i := 0; i < 3; i++ {
		hash := fmt.Sprintf("sha256:%02d", i)
		if _, leader := c.Lookup(hash); !leader {
			t.Fatalf("fresh hash %s did not elect a leader", hash)
		}
		c.Fulfill(hash, res, "")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, bound is 2", c.Len())
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	// The oldest entry (00) was evicted; 01 and 02 remain.
	if _, leader := c.Lookup("sha256:00"); !leader {
		t.Error("evicted entry still present")
	}
	c.Abandon("sha256:00") // release the slot the probe created
	for _, hash := range []string{"sha256:01", "sha256:02"} {
		e, leader := c.Lookup(hash)
		if leader {
			t.Errorf("%s was evicted, want retained", hash)
			c.Abandon(hash)
			continue
		}
		if got, _, ok := e.Wait(context.Background()); !ok || got != res {
			t.Errorf("%s did not replay the stored result", hash)
		}
	}
}

func TestResultCacheLRUTouchOnLookup(t *testing.T) {
	c := NewResultCache(2)
	res := &hotpotato.Result{}
	for _, h := range []string{"a", "b"} {
		c.Lookup(h)
		c.Fulfill(h, res, "")
	}
	// Touch "a" so "b" is now least recently used; inserting "c" must evict "b".
	c.Lookup("a")
	c.Lookup("c")
	c.Fulfill("c", res, "")
	if _, leader := c.Lookup("b"); !leader {
		t.Error("LRU victim was not the least recently used entry")
	}
	c.Abandon("b")
	if _, leader := c.Lookup("a"); leader {
		t.Error("recently touched entry was evicted")
		c.Abandon("a")
	}
}

func TestResultCacheSingleflight(t *testing.T) {
	c := NewResultCache(8)
	e, leader := c.Lookup("h")
	if !leader {
		t.Fatal("first lookup is not the leader")
	}
	const followers = 4
	results := make([]*hotpotato.Result, followers)
	oks := make([]bool, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fe, fleader := c.Lookup("h")
			if fleader {
				t.Error("second lookup stole leadership")
				return
			}
			results[i], _, oks[i] = fe.Wait(context.Background())
		}(i)
	}
	res := &hotpotato.Result{Scheduler: "x"}
	time.Sleep(10 * time.Millisecond) // let followers block on the entry
	c.Fulfill("h", res, "timed out")
	wg.Wait()
	_ = e
	for i := 0; i < followers; i++ {
		if !oks[i] || results[i] != res {
			t.Errorf("follower %d: ok=%v res=%p, want the leader's result", i, oks[i], results[i])
		}
	}
	// Exactly one miss for the whole flight.
	if _, misses, _ := c.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1 for a coalesced flight", misses)
	}
}

func TestResultCacheAbandonWakesFollowers(t *testing.T) {
	c := NewResultCache(8)
	if _, leader := c.Lookup("h"); !leader {
		t.Fatal("no leader")
	}
	e, leader := c.Lookup("h")
	if leader {
		t.Fatal("follower elected leader")
	}
	done := make(chan bool, 1)
	go func() {
		_, _, ok := e.Wait(context.Background())
		done <- ok
	}()
	c.Abandon("h")
	select {
	case ok := <-done:
		if ok {
			t.Error("abandoned entry reported a valid outcome")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never woke after Abandon")
	}
	// The slot is free again: the next lookup elects a new leader.
	if _, leader := c.Lookup("h"); !leader {
		t.Error("abandoned hash did not free its slot")
	}
	c.Abandon("h")
}

func TestResultCacheWaitRespectsContext(t *testing.T) {
	c := NewResultCache(8)
	c.Lookup("h") // leader never fulfills
	e, _ := c.Lookup("h")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, ok := e.Wait(ctx); ok {
		t.Error("Wait returned ok on an expired context")
	}
	c.Abandon("h")
}

// TestRepeatedRunServedFromCache is the end-to-end acceptance test: a second
// POST /v1/run of the same document replays the cached result bit-identically
// (host-time fields aside — a cached replay has no scheduler host time of its
// own), marks the response cached, sets the same ETag, and increments the
// result-cache hit counter.
func TestRepeatedRunServedFromCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})

	type envelope struct {
		Result *hotpotato.Result `json:"result"`
		Cached bool              `json:"cached"`
		Error  string            `json:"error"`
	}
	post := func() (*http.Response, envelope) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		return resp, env
	}

	respCold, cold := post()
	if cold.Cached {
		t.Fatal("first run claims to be cached")
	}
	hitsBefore, _, _ := svc.Results().Stats()

	respWarm, warm := post()
	if !warm.Cached {
		t.Fatal("second identical run was not served from the cache")
	}
	if hits, _, _ := svc.Results().Stats(); hits != hitsBefore+1 {
		t.Errorf("hit counter went %d -> %d, want +1", hitsBefore, hits)
	}

	etagCold, etagWarm := respCold.Header.Get("ETag"), respWarm.Header.Get("ETag")
	if etagCold == "" || etagCold != etagWarm {
		t.Errorf("ETags diverged: %q vs %q", etagCold, etagWarm)
	}

	// Bit-identical modulo host time: zero the only wall-clock field and
	// compare everything else exactly.
	cold.Result.SchedulerHostTime = 0
	warm.Result.SchedulerHostTime = 0
	if !reflect.DeepEqual(cold.Result, warm.Result) {
		t.Errorf("cached replay diverged from cold run:\ncold %+v\nwarm %+v", cold.Result, warm.Result)
	}
}

// TestRunETagConditionalRequest: If-None-Match with the spec's ETag answers
// 304 with no body and no simulation.
func TestRunETagConditionalRequest(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	resp, _ := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /v1/run response")
	}

	runsBefore, _ := svc.Cache().Stats()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(quickSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", etag)
	got, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status %d, want 304", got.StatusCode)
	}
	if got.Header.Get("ETag") != etag {
		t.Errorf("304 ETag %q, want %q", got.Header.Get("ETag"), etag)
	}
	if runsAfter, _ := svc.Cache().Stats(); runsAfter != runsBefore {
		t.Error("304 path touched the platform cache — it must answer before executing")
	}

	// A non-matching tag executes normally.
	req2, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(quickSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("If-None-Match", `"sha256:other"`)
	got2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer got2.Body.Close()
	if got2.StatusCode != http.StatusOK {
		t.Fatalf("mismatched If-None-Match status %d, want 200", got2.StatusCode)
	}
}

func TestIfNoneMatchParsing(t *testing.T) {
	etag := `"sha256:abc"`
	cases := map[string]bool{
		`"sha256:abc"`:                  true,
		`W/"sha256:abc"`:                true,
		`*`:                             true,
		`"sha256:zzz", "sha256:abc"`:    true,
		`"sha256:zzz" , W/"sha256:abc"`: true,
		`"sha256:zzz"`:                  false,
		`sha256:abc`:                    false, // unquoted is not a valid tag
	}
	for header, want := range cases {
		if got := ifNoneMatchHas(header, etag); got != want {
			t.Errorf("ifNoneMatchHas(%q) = %v, want %v", header, got, want)
		}
	}
}

// TestResultCacheAbandonedFallbackAccounting: a follower whose leader
// abandons the slot re-runs uncached; before the abandoned counter existed
// that run was neither hit nor miss, silently inflating the hit ratio. The
// fallback must count as a miss plus one abandoned-fallback.
func TestResultCacheAbandonedFallbackAccounting(t *testing.T) {
	c := NewResultCache(4)
	const h = "sha256:deadbeef"

	if _, leader := c.Lookup(h); !leader {
		t.Fatal("first lookup should lead")
	}
	entry, leader := c.Lookup(h)
	if leader {
		t.Fatal("second lookup should follow")
	}

	woken := make(chan bool, 1)
	go func() {
		_, _, ok := entry.Wait(context.Background())
		woken <- ok
	}()
	c.Abandon(h)
	if ok := <-woken; ok {
		t.Fatal("follower woken by Abandon reported a cached outcome")
	}
	// The follower now re-runs uncached — the serving layer records that.
	c.RecordAbandonedFallback()

	hits, misses, _ := c.Stats()
	if hits != 0 {
		t.Errorf("hits = %d, want 0", hits)
	}
	if misses != 2 { // leader's miss + the abandoned fallback
		t.Errorf("misses = %d, want 2 (leader + abandoned fallback)", misses)
	}
	if got := c.AbandonedFallbacks(); got != 1 {
		t.Errorf("AbandonedFallbacks = %d, want 1", got)
	}
}
