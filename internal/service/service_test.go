package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// quickSpecJSON is a fast 4×4 run in the minimal wire form a client would
// POST.
const quickSpecJSON = `{
	"platform":  {"width": 4, "height": 4},
	"scheduler": {"name": "hotpotato"},
	"workload":  {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}
}`

// longSpecJSON runs long enough (in host time) to still be in flight while a
// test cancels, overflows the queue, or shuts the server down.
const longSpecJSON = `{
	"platform":  {"width": 4, "height": 4},
	"scheduler": {"name": "hotpotato"},
	"workload":  {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}]}
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSyncRunMatchesInProcess is the serving half of the equivalence
// contract: POST /v1/run must return a Result bit-identical to the in-process
// ExecuteSpec of the same document (host-time fields aside).
func TestSyncRunMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Result *hotpotato.Result `json:"result"`
		Error  string            `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error != "" || envelope.Result == nil {
		t.Fatalf("unexpected envelope: %s", body)
	}

	var spec hotpotato.RunSpec
	if err := json.Unmarshal([]byte(quickSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := hotpotato.ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want.SchedulerHostTime = 0
	envelope.Result.SchedulerHostTime = 0
	if !reflect.DeepEqual(want, envelope.Result) {
		t.Errorf("served result diverged from in-process run:\nwant %+v\ngot  %+v", want, envelope.Result)
	}
}

// TestConcurrentRequestsSharePlatform asserts the platform caching property:
// concurrent requests for the same chip trigger exactly one platform
// construction. The specs differ per request (distinct work scales), so the
// result cache cannot coalesce them upstream — every request must reach the
// platform cache.
func TestConcurrentRequestsSharePlatform(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4})

	const requests = 4
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := strings.Replace(quickSpecJSON, `"work_scale": 0.3`,
				fmt.Sprintf(`"work_scale": 0.%d`, i+1), 1)
			resp, body := postJSON(t, ts.URL+"/v1/run", spec)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	hits, misses := svc.Cache().Stats()
	if misses != 1 {
		t.Errorf("want exactly 1 platform construction, got %d (hits %d)", misses, hits)
	}
	if hits != requests-1 {
		t.Errorf("want %d cache hits, got %d", requests-1, hits)
	}
}

// TestSolverComesFromTheSpec checks the solver choice as the spec alone makes
// it: a spec leaving platform.thermal.solver empty and one naming "auto" are
// the same run (one ETag, one cached platform, the second a result-cache
// hit), and a spec naming a backend gets its own platform-cache entry.
func TestSolverComesFromTheSpec(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	withSolver := func(name string) string {
		return strings.Replace(quickSpecJSON,
			`"width": 4, "height": 4`, `"width": 4, "height": 4, "thermal": {"solver": "`+name+`"}`, 1)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	autoTag := resp.Header.Get("ETag")
	if n := svc.Cache().Len(); n != 1 {
		t.Fatalf("want 1 cached platform, got %d", n)
	}

	resp, body = postJSON(t, ts.URL+"/v1/run", withSolver("auto"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto-solver status %d: %s", resp.StatusCode, body)
	}
	if tag := resp.Header.Get("ETag"); tag != autoTag {
		t.Errorf(`solver "auto" ETag %s, want the empty solver's %s`, tag, autoTag)
	}
	var run runResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if !run.Cached {
		t.Error(`solver "auto" missed the result cached for the empty solver`)
	}
	if n := svc.Cache().Len(); n != 1 {
		t.Errorf(`solver "auto" built its own platform: %d entries`, n)
	}

	// An explicit backend is a different platform for the same chip.
	resp, body = postJSON(t, ts.URL+"/v1/run", withSolver("dense"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit-solver status %d: %s", resp.StatusCode, body)
	}
	if n := svc.Cache().Len(); n != 2 {
		t.Errorf("explicit solver should cache separately from auto: %d entries", n)
	}
}

func TestValidationErrorsAreBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/run",
		`{"scheduler": {"name": "no-such"}, "workload": {"kind": "bogus"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// errors.Join: both problems reported in one round trip.
	for _, fragment := range []string{"no-such", "bogus"} {
		if !bytes.Contains(body, []byte(fragment)) {
			t.Errorf("400 body does not mention %q: %s", fragment, body)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status != JobQueued {
		t.Fatalf("unexpected submission response: %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == JobDone {
			break
		}
		if job.Status == JobFailed || job.Status == JobCanceled {
			t.Fatalf("job ended as %s: %s", job.Status, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Result == nil || job.Result.Makespan <= 0 {
		t.Errorf("done job has no plausible result: %+v", job.Result)
	}

	resp, _ = getJSON(t, ts.URL+"/v1/jobs/job-does-not-exist")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
}

// TestQueueOverflowAnswers429 fills the single worker and the depth-1 queue,
// then checks the next submission is rejected with 429, not queued or hung.
func TestQueueOverflowAnswers429(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	statuses := make([]int, 3)
	for i := range statuses {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", longSpecJSON)
		statuses[i] = resp.StatusCode
	}
	if want := []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests}; !reflect.DeepEqual(statuses, want) {
		t.Fatalf("statuses %v, want %v", statuses, want)
	}

	// Shutdown must cancel the still-running job within its drain budget:
	// the run context aborts the simulation mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_ = svc.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("shutdown took %s; force-cancel did not reach the running simulation", elapsed)
	}
}

// TestShutdownCancelsQueuedJob: with one slot, a long job runs and a second
// one waits for the slot reading "queued". Shutdown ends the waiting job
// canceled without a single epoch, and the running one canceled once the
// drain budget runs out.
func TestShutdownCancelsQueuedJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	hugeSpecJSON := strings.Replace(longSpecJSON, `"work_scale": 100`, `"work_scale": 100000`, 1)

	job := func(resp *http.Response, body []byte) Job {
		t.Helper()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var j Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	running := job(postJSON(t, ts.URL+"/v1/jobs", hugeSpecJSON))
	deadline := time.Now().Add(30 * time.Second)
	for job(getJSON(t, ts.URL+"/v1/jobs/"+running.ID)).Status != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := job(postJSON(t, ts.URL+"/v1/jobs", hugeSpecJSON))
	if got := job(getJSON(t, ts.URL+"/v1/jobs/"+queued.ID)); got.Status != JobQueued {
		t.Fatalf("job waiting for the slot reads %s, want queued", got.Status)
	}
	var health struct {
		Queued int `json:"queued"`
	}
	if _, body := getJSON(t, ts.URL+"/healthz"); json.Unmarshal(body, &health) != nil || health.Queued != 1 {
		t.Errorf("healthz queued = %d, want 1: %s", health.Queued, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want the drain budget exceeded", err)
	}
	if got := job(getJSON(t, ts.URL+"/v1/jobs/"+running.ID)); got.Status != JobCanceled {
		t.Errorf("running job ended %s, want canceled", got.Status)
	}
	got := job(getJSON(t, ts.URL+"/v1/jobs/"+queued.ID))
	if got.Status != JobCanceled {
		t.Errorf("queued job ended %s, want canceled", got.Status)
	}
	if got.Result != nil || (got.Profile != nil && got.Profile.Epochs != 0) {
		t.Errorf("queued job ran: result %v, profile %+v", got.Result, got.Profile)
	}
	if _, body := getJSON(t, ts.URL+"/healthz"); json.Unmarshal(body, &health) != nil || health.Queued != 0 {
		t.Errorf("healthz queued = %d after shutdown, want 0: %s", health.Queued, body)
	}
}

// TestServerStartsNoGoroutines: a server costs no goroutines until work
// arrives, and Shutdown leaves none behind.
func TestServerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 4})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("New started %d goroutines", n-before)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Shutdown's drain waiter exits just after it reports; give it a moment.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncCancellationAbandonsRun checks a disconnected client stops its
// simulation: the handler returns promptly and the worker slot frees up.
// The client disconnects only once the run holds the server's one worker
// slot, and the run takes over a minute of host time (MaxTime raised past
// its 5,700 simulated seconds), so the request cannot finish before the
// cancellation arrives however loaded the host is.
func TestSyncCancellationAbandonsRun(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	hugeSpecJSON := `{
	"platform":  {"width": 4, "height": 4},
	"sim":       {"dtm_enabled": true, "max_time": 10000},
	"scheduler": {"name": "hotpotato"},
	"workload":  {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100000}]}
}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(hugeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer cancel()
		for deadline := time.Now().Add(30 * time.Second); len(svc.sem) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}

	// The single worker slot must become available again quickly: a fast
	// follow-up run proves the cancelled simulation released it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follow-up run: status %d: %s", resp.StatusCode, body)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot never freed after client disconnect")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("unexpected health: %s", body)
	}
}

// TestShutdownRejectsNewWork checks the intake closes while a drain is in
// progress.
func TestShutdownRejectsNewWork(t *testing.T) {
	svc := New(Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/run", "/v1/jobs"} {
		resp, _ := postJSON(t, ts.URL+path, quickSpecJSON)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s after shutdown: status %d", path, resp.StatusCode)
		}
	}
}

// TestEvictTerminalSparesLiveJobs pins the eviction predicate at the store
// level: only jobs that were terminal at or before the cutoff go; queued,
// running and recently-finished jobs all survive.
func TestEvictTerminalSparesLiveJobs(t *testing.T) {
	store := newJobStore(5, time.Hour) // create and get never sweep within the test
	var spec hotpotato.RunSpec

	queued := store.create(spec, "")
	running := store.create(spec, "")
	store.start(running)
	oldDone := store.create(spec, "")
	store.finish(oldDone, JobDone, nil, nil, nil)
	oldFailed := store.create(spec, "")
	store.finish(oldFailed, JobFailed, nil, nil, context.Canceled)
	freshDone := store.create(spec, "")
	store.finish(freshDone, JobDone, nil, nil, nil)
	freshDone.mu.Lock()
	freshDone.doneAt = time.Now().Add(time.Hour) // "finished in the future" = after any cutoff
	freshDone.mu.Unlock()

	store.mu.Lock()
	n := store.evictTerminal(time.Now())
	store.mu.Unlock()
	if n != 2 {
		t.Fatalf("evicted %d jobs, want 2 (the stale done + failed)", n)
	}
	for _, keep := range []*jobState{queued, running, freshDone} {
		if _, ok := store.get(keep.job.ID); !ok {
			t.Errorf("job %s (%s) was evicted but should survive", keep.job.ID, keep.snapshot().Status)
		}
	}
	for _, gone := range []*jobState{oldDone, oldFailed} {
		if _, ok := store.get(gone.job.ID); ok {
			t.Errorf("stale terminal job %s still in store", gone.job.ID)
		}
	}
}

// TestRetentionEvictsFinishedJobs is the leak regression test: with a short
// retention, a completed async job must eventually answer 404, while a job
// that is still running is never touched.
func TestRetentionEvictsFinishedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, JobRetention: 50 * time.Millisecond})

	// A job slow enough (in host time) to still be running when the quick
	// one below has finished, aged out and been evicted.
	hugeSpecJSON := strings.Replace(longSpecJSON, `"work_scale": 100`, `"work_scale": 100000`, 1)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", hugeSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long job: status %d: %s", resp.StatusCode, body)
	}
	var longJob Job
	if err := json.Unmarshal(body, &longJob); err != nil {
		t.Fatal(err)
	}

	// A quick job that finishes and should then age out.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", quickSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quick job: status %d: %s", resp.StatusCode, body)
	}
	var quickJob Job
	if err := json.Unmarshal(body, &quickJob); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+quickJob.ID)
		if resp.StatusCode == http.StatusNotFound {
			break // evicted after finishing — the leak is plugged
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &quickJob); err != nil {
			t.Fatal(err)
		}
		if s := quickJob.Status; s == JobFailed || s == JobCanceled {
			t.Fatalf("quick job ended as %s: %s", s, quickJob.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("finished job never evicted (still %s)", quickJob.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight job outlived many retention periods and must still be
	// queryable.
	resp, body = getJSON(t, ts.URL+"/v1/jobs/"+longJob.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("running job evicted: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &longJob); err != nil {
		t.Fatal(err)
	}
	if longJob.Status.Terminal() {
		t.Fatalf("long job unexpectedly terminal: %+v", longJob)
	}
}

// TestJobIDsUniqueAcrossRestart: a restarted server never reissues a job
// ID, so a client polling a job of the old process cannot read another
// client's job from the new one.
func TestJobIDsUniqueAcrossRestart(t *testing.T) {
	var ids []string
	for range 2 {
		svc, ts := newTestServer(t, Config{Workers: 1})
		resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpecJSON)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = svc.Shutdown(ctx)
		cancel()
	}
	if ids[0] == ids[1] {
		t.Fatalf("job ID %s repeats across a restart", ids[0])
	}
}

// TestNewBoundsDefaultWhenNotPositive: every sizing knob of Config is a
// bound, and 0 and -1 both select its positive default. A job's trace ring
// and span recorder are filled one past the default depth and must keep
// exactly the default.
func TestNewBoundsDefaultWhenNotPositive(t *testing.T) {
	for _, tc := range []struct {
		knob  string
		cfg   func(n int) Config
		bound func(t *testing.T, s *Server) int64
		want  int64
	}{
		{"ResultCacheEntries", func(n int) Config { return Config{ResultCacheEntries: n} },
			func(t *testing.T, s *Server) int64 {
				if s.Results() == nil {
					t.Fatal("no result cache")
				}
				return int64(s.Results().max)
			},
			DefaultResultCacheEntries},
		{"JobRetention", func(n int) Config { return Config{JobRetention: time.Duration(n)} },
			func(_ *testing.T, s *Server) int64 { return int64(s.jobs.retention) },
			int64(DefaultJobRetention)},
		{"BatchHeartbeat", func(n int) Config { return Config{BatchHeartbeat: time.Duration(n)} },
			func(_ *testing.T, s *Server) int64 { return int64(s.cfg.BatchHeartbeat) },
			int64(DefaultBatchHeartbeat)},
		{"TraceDepth", func(n int) Config { return Config{TraceDepth: n} },
			func(t *testing.T, s *Server) int64 {
				j := queuedJob(t, s)
				for range obs.DefaultTraceDepth + 1 {
					j.tracer.RecordEpoch(obs.EpochEvent{})
				}
				return int64(j.tracer.Len())
			},
			obs.DefaultTraceDepth},
		{"SpanDepth", func(n int) Config { return Config{SpanDepth: n} },
			func(t *testing.T, s *Server) int64 {
				j := queuedJob(t, s)
				for range obs.DefaultSpanDepth { // the job's root span holds one slot
					j.spans.Start("fill").End()
				}
				return int64(j.spans.Len())
			},
			obs.DefaultSpanDepth},
	} {
		for _, n := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s=%d", tc.knob, n), func(t *testing.T) {
				cfg := tc.cfg(n)
				cfg.Workers = 1
				if got := tc.bound(t, New(cfg)); got != tc.want {
					t.Errorf("%s %d: bound %d, want %d", tc.knob, n, got, tc.want)
				}
			})
		}
	}
}

// queuedJob submits a job to s while holding its only worker slot, so the
// job stays queued until the test ends, and returns the job's record.
func queuedJob(t *testing.T, s *Server) *jobState {
	t.Helper()
	s.sem <- struct{}{}
	t.Cleanup(func() {
		<-s.sem
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(quickSpecJSON)))
	var job Job
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	j, ok := s.jobs.get(job.ID)
	if !ok {
		t.Fatalf("job %q not stored", job.ID)
	}
	if j.tracer == nil || j.spans == nil {
		t.Fatal("job has no trace ring or no span recorder")
	}
	return j
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestWithDefaultsLeavesSolverEmpty pins that WithDefaults (and so Expand,
// which applies it per cell) never fills platform.thermal.solver: a spec
// that leaves the backend open runs on auto, and its hash says so.
func TestWithDefaultsLeavesSolverEmpty(t *testing.T) {
	var spec hotpotato.RunSpec
	if err := json.Unmarshal([]byte(quickSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	if got := spec.WithDefaults().Platform.Thermal.Solver; got != "" {
		t.Fatalf("WithDefaults set solver %q", got)
	}

	sweep := hotpotato.SweepSpec{Base: spec}
	cells, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if got := cell.Spec.Platform.Thermal.Solver; got != "" {
			t.Fatalf("Expand set solver %q on cell %d", got, cell.Index)
		}
	}
}
