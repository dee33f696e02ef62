package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
)

// quickSweepJSON is a 2 schedulers × 2 workloads sweep of fast 4×4 cells.
const quickSweepJSON = `{
	"base": {"platform": {"width": 4, "height": 4}},
	"axes": {
		"schedulers": [{"name": "hotpotato"}, {"name": "reactive"}],
		"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 3, "work_scale": 0.3}]}
		]
	}
}`

// batchRecord is the union of all stream record shapes, keyed by "type".
type batchRecord struct {
	Type      string            `json:"type"`
	Total     int               `json:"total"`
	Index     int               `json:"index"`
	Hash      string            `json:"hash"`
	Status    string            `json:"status"`
	Cached    bool              `json:"cached"`
	Error     string            `json:"error"`
	Result    *hotpotato.Result `json:"result"`
	Done      int               `json:"done"`
	Completed int               `json:"completed"`
	Failed    int               `json:"failed"`
	Canceled  int               `json:"canceled"`
	CacheHits int               `json:"cache_hits"`
	RequestID string            `json:"request_id"`
}

// postBatch streams a sweep and decodes every NDJSON record.
func postBatch(t *testing.T, url, body string) (*http.Response, []batchRecord) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var records []batchRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec batchRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, records
}

// batchDoor is one implementation of POST /v1/batch under test.
type batchDoor struct{ name, url string }

// batchDoors serves cfg's sweeps through both doors: the server itself, and
// a dispatcher (same admission limit, heartbeat and solver default) whose one
// in-process worker executes cells on a second, separate service stack — so
// neither door warms the other's result cache.
func batchDoors(t *testing.T, cfg Config) []batchDoor {
	t.Helper()
	svc, ts := newTestServer(t, cfg)
	worker, _ := newTestServer(t, cfg)
	d := fabric.NewDispatcher(fabric.Config{
		MaxSweepCells: svc.cfg.MaxSweepCells,
		Heartbeat:     svc.cfg.BatchHeartbeat,
		DefaultSolver: svc.cfg.DefaultSolver,
	})
	ds := httptest.NewServer(d.Handler())
	ctx, stop := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w := &fabric.Worker{Dispatcher: ds.URL, Exec: worker.ExecuteCell, IdlePoll: 5 * time.Millisecond}
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		stop()
		<-stopped
		ds.Close()
	})
	return []batchDoor{{"server", ts.URL}, {"dispatcher", ds.URL}}
}

// TestBatchRejectionsMatchAcrossDoors: every admission rejection answers
// with the same status and the same decoded error envelope from the server
// and the dispatcher. An oversized sweep whose cross-product saturated
// CellCount says "more than" the structural ceiling instead of printing the
// saturated count as if it were exact.
func TestBatchRejectionsMatchAcrossDoors(t *testing.T) {
	doors := batchDoors(t, Config{Workers: 1, MaxSweepCells: 2})
	seeds := make([]string, 300)
	schedulers := make([]string, 300)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
		schedulers[i] = `{"name": "hotpotato"}`
	}
	saturated := `{"axes": {"seeds": [` + strings.Join(seeds, ",") +
		`], "schedulers": [` + strings.Join(schedulers, ",") + `]}}`
	cases := []struct {
		name, body string
		status     int
		code       string
		fragment   string
	}{
		{"bad version", `{"version": "v9"}`, http.StatusBadRequest, fabric.CodeInvalidRequest, "version"},
		{"bad solvers axis", `{"axes": {"solvers": ["x"]}}`, http.StatusBadRequest, fabric.CodeInvalidRequest, "solvers axis entry 0"},
		{"undecodable body", `[1,2`, http.StatusBadRequest, fabric.CodeInvalidRequest, "decoding SweepSpec"},
		{"oversized sweep", `{"axes": {"seeds": [1, 2, 3], "solvers": ["dense", "sparse"]}}`,
			http.StatusRequestEntityTooLarge, fabric.CodeTooLarge, "expands to 6 cells, admission limit is 2"},
		{"saturated sweep", saturated,
			http.StatusRequestEntityTooLarge, fabric.CodeTooLarge, "expands to more than 65536 cells"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var envs []fabric.ErrorEnvelope
			for _, door := range doors {
				resp, body := postJSON(t, door.url+"/v1/batch", c.body)
				if resp.StatusCode != c.status {
					t.Fatalf("%s: status %d, want %d: %s", door.name, resp.StatusCode, c.status, body)
				}
				var env fabric.ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatalf("%s: body is not the error envelope: %v\n%s", door.name, err, body)
				}
				if env.Error.Code != c.code || !strings.Contains(env.Error.Message, c.fragment) {
					t.Errorf("%s: envelope %+v, want code %q and a message containing %q",
						door.name, env.Error, c.code, c.fragment)
				}
				envs = append(envs, env)
			}
			if !reflect.DeepEqual(envs[0], envs[1]) {
				t.Errorf("doors disagree:\n%s: %+v\n%s: %+v", doors[0].name, envs[0], doors[1].name, envs[1])
			}
		})
	}
}

// TestBatchStreamsSweep: the 2×2 sweep streams one header, four result
// records (distinct indices, all ok, hashed) and one summary, as NDJSON.
func TestBatchStreamsSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, records := postBatch(t, ts.URL+"/v1/batch", quickSweepJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	if len(records) < 6 {
		t.Fatalf("got %d records, want header + 4 results + summary", len(records))
	}
	if records[0].Type != "sweep" || records[0].Total != 4 {
		t.Errorf("first record is not the sweep header: %+v", records[0])
	}
	if records[0].RequestID == "" {
		t.Error("sweep header lacks the request ID")
	}
	last := records[len(records)-1]
	if last.Type != "summary" {
		t.Fatalf("last record is %q, want summary", last.Type)
	}
	if last.Total != 4 || last.Completed != 4 || last.Failed != 0 || last.Canceled != 0 {
		t.Errorf("summary off: %+v", last)
	}

	seen := map[int]bool{}
	for _, rec := range records[1 : len(records)-1] {
		if rec.Type != "result" {
			continue
		}
		if seen[rec.Index] {
			t.Errorf("cell %d streamed twice", rec.Index)
		}
		seen[rec.Index] = true
		if rec.Status != "ok" || rec.Result == nil {
			t.Errorf("cell %d: status %q error %q", rec.Index, rec.Status, rec.Error)
		}
		if !strings.HasPrefix(rec.Hash, "sha256:") {
			t.Errorf("cell %d: hash %q", rec.Index, rec.Hash)
		}
	}
	if len(seen) != 4 {
		t.Errorf("streamed %d distinct cells, want 4", len(seen))
	}
}

// TestBatchStreamsIncrementally is the acceptance criterion that the stream
// is actually a stream: with slow cells, the header (and first results) must
// arrive on the wire before the last cell finishes — observed here as
// receiving the header while the sweep's cells are still executing.
func TestBatchStreamsIncrementally(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Serial cells (1 worker), each slow enough to straddle the read.
	sweep := `{
		"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "hotpotato"}},
		"axes": {"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 3}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 2, "work_scale": 3}]},
			{"kind": "explicit", "tasks": [{"bench": "bodytrack", "threads": 2, "work_scale": 3}]}
		]}
	}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	began := time.Now()
	sc := bufio.NewScanner(resp.Body)
	var sawHeader, sawFirstResult time.Duration
	var lines int
	for sc.Scan() {
		lines++
		var rec batchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Type == "sweep":
			sawHeader = time.Since(began)
		case rec.Type == "result" && sawFirstResult == 0:
			sawFirstResult = time.Since(began)
		}
	}
	total := time.Since(began)
	if sawHeader == 0 || sawFirstResult == 0 {
		t.Fatalf("stream missing header or results (%d lines)", lines)
	}
	// The header precedes any execution; the first result lands one cell in.
	// If either only arrived with the terminal flush, the endpoint buffered
	// the whole sweep and is not streaming.
	if sawFirstResult >= total {
		t.Errorf("first result arrived only at stream end (%v of %v)", sawFirstResult, total)
	}
	if sawHeader > total/2 {
		t.Errorf("header arrived at %v of %v — stream looks buffered", sawHeader, total)
	}
}

// TestBatchCellsShareResultCache: a sweep repeating one cell (seeds axis on a
// seed-insensitive workload) coalesces onto one simulation, and re-posting
// the sweep replays everything from the cache.
func TestBatchCellsShareResultCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})

	sweep := `{
		"base": {
			"platform": {"width": 4, "height": 4},
			"scheduler": {"name": "hotpotato"},
			"workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}
		},
		"axes": {"seeds": [1, 2, 3, 4]}
	}`
	// Explicit workloads ignore seeds, so all 4 cells hash identically.
	_, records := postBatch(t, ts.URL+"/v1/batch", sweep)
	last := records[len(records)-1]
	if last.Type != "summary" || last.Completed != 4 {
		t.Fatalf("summary off: %+v", last)
	}
	if _, misses, _ := svc.Results().Stats(); misses != 1 {
		t.Errorf("identical cells missed %d times, want 1 (singleflight)", misses)
	}
	if last.CacheHits != 3 {
		t.Errorf("first sweep cache_hits = %d, want 3 coalesced cells", last.CacheHits)
	}

	// Re-post: every cell replays.
	_, records = postBatch(t, ts.URL+"/v1/batch", sweep)
	last = records[len(records)-1]
	if last.CacheHits != 4 {
		t.Errorf("re-posted sweep cache_hits = %d, want 4", last.CacheHits)
	}
	for _, rec := range records {
		if rec.Type == "result" && !rec.Cached {
			t.Errorf("cell %d not served from cache on re-post", rec.Index)
		}
	}
}

// TestBatchClientDisconnectCancels: dropping the connection mid-sweep stops
// the in-flight cells within one scheduler epoch, releasing the worker.
func TestBatchClientDisconnectCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	slowSweep := `{
		"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "hotpotato"}},
		"axes": {"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 2, "work_scale": 100}]}
		]}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(slowSweep))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header line to be sure the sweep is running, then vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	cancel()
	resp.Body.Close()

	// The single worker slot must free promptly: a quick follow-up run
	// completes instead of queueing behind a zombie sweep.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follow-up run after disconnect: status %d: %s", resp.StatusCode, body)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot never freed after batch client disconnect")
	}
}

// TestBatchSSE: Accept: text/event-stream switches the same records to SSE
// framing.
func TestBatchSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(quickSweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	var events, datas int
	var sawSummary bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
			if strings.TrimPrefix(line, "event: ") == "summary" {
				sawSummary = true
			}
		case strings.HasPrefix(line, "data: "):
			datas++
			var rec batchRecord
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("bad SSE data: %v\n%s", err, line)
			}
		}
	}
	if events == 0 || events != datas {
		t.Errorf("SSE framing off: %d event lines, %d data lines", events, datas)
	}
	if !sawSummary {
		t.Error("no summary event in the SSE stream")
	}
}

// TestBatchHeartbeat: an idle stream (slow single cell) emits progress
// records at the configured cadence, from either door.
func TestBatchHeartbeat(t *testing.T) {
	sweep := `{
		"base": {
			"platform": {"width": 4, "height": 4},
			"scheduler": {"name": "hotpotato"},
			"workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}]}
		}
	}`
	for _, door := range batchDoors(t, Config{Workers: 1, BatchHeartbeat: 10 * time.Millisecond}) {
		t.Run(door.name, func(t *testing.T) {
			_, records := postBatch(t, door.url+"/v1/batch", sweep)
			var progress int
			for _, rec := range records {
				if rec.Type == "progress" {
					progress++
					if rec.Total != 1 {
						t.Errorf("progress total %d, want 1", rec.Total)
					}
				}
			}
			if progress == 0 {
				t.Error("no progress heartbeat on a slow stream")
			}
		})
	}
}

// TestJobsListing: GET /v1/jobs lists jobs in submission order with the
// status filter, and an empty store lists as [].
func TestJobsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})

	resp, body := getJSON(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"jobs": []`) {
		t.Errorf("empty listing should marshal jobs as []: %s", body)
	}

	const jobs = 12
	var submitted []string
	for i := 0; i < jobs; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpecJSON)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, job.ID)
	}
	// Wait for all to finish.
	deadline := time.Now().Add(30 * time.Second)
	var listing jobList
	for {
		_, body := getJSON(t, ts.URL+"/v1/jobs?status=done")
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		if listing.Count == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs done", listing.Count, jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, job := range listing.Jobs {
		if job.Status != JobDone {
			t.Errorf("filtered listing contains status %q", job.Status)
		}
		if job.ID != submitted[i] {
			t.Errorf("listing[%d] = %q, want the %d-th submission %q", i, job.ID, i+1, submitted[i])
		}
	}

	// The unfiltered list matches, and an impossible filter is empty not 404.
	_, body = getJSON(t, ts.URL+"/v1/jobs")
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != jobs {
		t.Errorf("unfiltered count %d, want %d", listing.Count, jobs)
	}
	resp, body = getJSON(t, ts.URL+"/v1/jobs?status=running")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty filter result: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchSummaryAlwaysLast: regression for the heartbeat-after-summary
// bug. With a heartbeat cadence far shorter than the sweep, ticks race the
// terminal record constantly; the stream loop sends heartbeats and the
// summary from one goroutine, so the summary is the stream's last record on
// every run, from either door.
func TestBatchSummaryAlwaysLast(t *testing.T) {
	for _, door := range batchDoors(t, Config{Workers: 2, BatchHeartbeat: time.Millisecond}) {
		t.Run(door.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				_, records := postBatch(t, door.url+"/v1/batch", quickSweepJSON)
				if len(records) == 0 {
					t.Fatal("empty stream")
				}
				last := records[len(records)-1]
				if last.Type != "summary" {
					t.Fatalf("run %d: last record is %q, want summary", i, last.Type)
				}
				for j, rec := range records[:len(records)-1] {
					if rec.Type == "summary" {
						t.Fatalf("run %d: summary at position %d of %d is not terminal", i, j, len(records))
					}
				}
			}
		})
	}
}

// TestBatchSSEFraming: every SSE event's name matches the "type" field of
// the data payload it frames, the first event is the "sweep" header, and the
// last is the terminal "summary" — from either door.
func TestBatchSSEFraming(t *testing.T) {
	for _, door := range batchDoors(t, Config{Workers: 2, BatchHeartbeat: time.Millisecond}) {
		t.Run(door.name, func(t *testing.T) { checkSSEFraming(t, door.url) })
	}
}

func checkSSEFraming(t *testing.T, url string) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", strings.NewReader(quickSweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type event struct{ name, typ string }
	var events []event
	var pendingName string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			if pendingName != "" {
				t.Fatalf("event line %q follows unframed event %q", line, pendingName)
			}
			pendingName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if pendingName == "" {
				t.Fatalf("data line without a preceding event name: %q", line)
			}
			var rec batchRecord
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("bad SSE data: %v\n%s", err, line)
			}
			events = append(events, event{pendingName, rec.Type})
			pendingName = ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 6 { // sweep + 4 results + summary
		t.Fatalf("only %d events for a 4-cell sweep", len(events))
	}
	for i, ev := range events {
		if ev.name != ev.typ {
			t.Errorf("event %d: SSE name %q but payload type %q", i, ev.name, ev.typ)
		}
	}
	if events[0].name != "sweep" {
		t.Errorf("first event %q, want sweep", events[0].name)
	}
	if last := events[len(events)-1].name; last != "summary" {
		t.Errorf("last event %q, want summary", last)
	}
}

// TestRunBatchSolverDefaultParity: with a service-level -solver default, the
// same spec must hash identically through POST /v1/run (decodeSpec applies
// the default post-WithDefaults) and POST /v1/batch (applied per expanded
// cell) — the cache key contract. The run primes the result cache; the batch
// cell must then be a cache hit, which can only happen if both endpoints
// derived the same SpecHash.
func TestRunBatchSolverDefaultParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DefaultSolver: "dense"})

	resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	runHash := strings.Trim(resp.Header.Get("ETag"), `"`)
	if !strings.HasPrefix(runHash, "sha256:") {
		t.Fatalf("run ETag %q is not a spec hash", runHash)
	}

	sweep := `{"base": ` + quickSpecJSON + `}`
	_, records := postBatch(t, ts.URL+"/v1/batch", sweep)
	var cell *batchRecord
	for i := range records {
		if records[i].Type == "result" {
			cell = &records[i]
		}
	}
	if cell == nil {
		t.Fatal("no result record in the batch stream")
	}
	if cell.Hash != runHash {
		t.Errorf("batch cell hash %q != run hash %q: endpoints disagree on the canonical spec", cell.Hash, runHash)
	}
	if !cell.Cached {
		t.Error("batch cell missed the cache primed by /v1/run: cache keys diverge between endpoints")
	}
}
