package hotpotato

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestPlatformCacheSingleflight(t *testing.T) {
	c := NewPlatformCache()
	cfg := DefaultPlatformConfig(4, 4)

	const callers = 8
	plats := make([]*Platform, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(cfg)
			if err != nil {
				t.Error(err)
			}
			plats[i] = p
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if plats[i] != plats[0] {
			t.Fatalf("caller %d got a different *Platform: %p vs %p", i, plats[i], plats[0])
		}
	}
	if hits, misses := c.Stats(); misses != 1 || hits != callers-1 {
		t.Errorf("want 1 miss / %d hits, got %d / %d", callers-1, misses, hits)
	}
	if c.Len() != 1 {
		t.Errorf("want 1 entry, got %d", c.Len())
	}

	// A different chip is a different entry and a different pointer.
	other, err := c.Get(DefaultPlatformConfig(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if other == plats[0] {
		t.Error("distinct configs shared a Platform")
	}
	if c.Len() != 2 {
		t.Errorf("want 2 entries, got %d", c.Len())
	}
}

// platformBuilds reads the process-wide platform-cache miss counter: every
// PlatformCache counts each platform it builds there.
func platformBuilds() int64 {
	counters, _ := obs.Default().Values()
	return counters["service_platform_cache_misses_total"]
}

// TestSweepDefaultRunnerBuildsEachPlatformOnce: ExecuteSweep's default
// runner builds one platform per distinct PlatformConfig at any worker
// count, and every cell's Result equals a standalone ExecuteSpec of its spec
// (host time aside).
func TestSweepDefaultRunnerBuildsEachPlatformOnce(t *testing.T) {
	var sweep SweepSpec
	if err := json.Unmarshal([]byte(`{
		"base": {"scheduler": {"name": "hotpotato"}},
		"axes": {
			"platforms": [{"width": 4, "height": 4}, {"width": 5, "height": 4}],
			"schedulers": [{"name": "hotpotato"}, {"name": "pcmig"}],
			"workloads": [
				{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]},
				{"kind": "explicit", "tasks": [{"bench": "canneal", "threads": 4, "work_scale": 0.3}]}]
		}
	}`), &sweep); err != nil {
		t.Fatal(err)
	}
	want := map[int]Result{}
	for _, workers := range []int{1, 4} {
		before := platformBuilds()
		got := map[int]Result{}
		err := ExecuteSweep(context.Background(), sweep, SweepOptions{Workers: workers}, func(r SweepCellResult) {
			if r.Err != nil {
				t.Errorf("workers=%d cell %d: %v", workers, r.Index, r.Err)
				return
			}
			res := *r.Result
			res.SchedulerHostTime = 0
			got[r.Index] = res
			if _, ok := want[r.Index]; ok {
				return
			}
			solo, err := ExecuteSpec(context.Background(), r.Spec)
			if err != nil {
				t.Fatalf("ExecuteSpec cell %d: %v", r.Index, err)
			}
			solo.SchedulerHostTime = 0
			want[r.Index] = *solo
		})
		if err != nil {
			t.Fatal(err)
		}
		if builds := platformBuilds() - before; builds != 2 {
			t.Errorf("workers=%d: %d platform builds for 2 distinct PlatformConfigs", workers, builds)
		}
		if len(got) != 8 {
			t.Fatalf("workers=%d: %d results, want 8", workers, len(got))
		}
		for i, res := range got {
			if !reflect.DeepEqual(res, want[i]) {
				t.Errorf("workers=%d cell %d: sweep result differs from ExecuteSpec", workers, i)
			}
		}
	}
}
