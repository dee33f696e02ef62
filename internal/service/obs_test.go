package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// promValue extracts the sample value of a plain (label-free) metric from a
// Prometheus text exposition body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, body)
	return 0
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, body := getJSON(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("GET /metrics content type %q", ct)
	}
	return string(body)
}

// TestMetricsEndpointCountsRuns is the issue's acceptance check: scraping
// /metrics before and after a POST /v1/run shows the counters moving.
func TestMetricsEndpointCountsRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	before := scrape(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/run", quickSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run failed: %d %s", resp.StatusCode, body)
	}
	after := scrape(t, ts.URL)

	for _, name := range []string{
		"service_run_requests_total",
		"sim_runs_total",
		"sim_epochs_total",
		"sim_slices_total",
		"service_run_seconds_count",
	} {
		if d := promValue(t, after, name) - promValue(t, before, name); d < 1 {
			t.Errorf("%s advanced by %g after a run, want ≥ 1", name, d)
		}
	}
	if v := promValue(t, after, "sim_peak_temp_celsius"); v < 40 || v > 120 {
		t.Errorf("sim_peak_temp_celsius = %g, want a plausible temperature", v)
	}
}

func TestBadSpecCountsAsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	before := metricBadRequests.Value()
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"scheduler": {"name": "nope"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if d := metricBadRequests.Value() - before; d < 1 {
		t.Errorf("service_bad_requests_total advanced by %d, want ≥ 1", d)
	}
}

// waitForJob polls until the job reaches a terminal status and returns it.
func waitForJob(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := getJSON(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var job Job
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobTraceReturnsOneEventPerEpoch is the issue's async acceptance check:
// a completed 4×4 job's trace holds exactly one event per scheduler epoch.
func TestJobTraceReturnsOneEventPerEpoch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TraceDepth: 1 << 16})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	done := waitForJob(t, ts.URL, job.ID)
	if done.Status != JobDone {
		t.Fatalf("job ended as %s: %s", done.Status, done.Error)
	}

	resp, body = getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", resp.StatusCode, body)
	}
	var trace struct {
		ID      string           `json:"id"`
		Status  JobStatus        `json:"status"`
		Total   int64            `json:"total"`
		Dropped int64            `json:"dropped"`
		Events  []obs.EpochEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.ID != job.ID || trace.Status != JobDone {
		t.Errorf("trace envelope = %s/%s, want %s/done", trace.ID, trace.Status, job.ID)
	}
	want := done.Result.SchedulerInvocations
	if trace.Total != int64(want) || len(trace.Events) != want || trace.Dropped != 0 {
		t.Fatalf("trace has %d events (total %d, dropped %d), want %d",
			len(trace.Events), trace.Total, trace.Dropped, want)
	}
	for i, ev := range trace.Events {
		if ev.Epoch != i {
			t.Fatalf("event %d has epoch %d", i, ev.Epoch)
		}
		if len(ev.CoreTemps) != 16 {
			t.Fatalf("event %d has %d core temps on a 4×4 chip", i, len(ev.CoreTemps))
		}
	}

	resp, _ = getJSON(t, ts.URL+"/v1/jobs/job-does-not-exist/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// TestJobTraceReadableMidRun exercises the concurrent read path: the trace
// endpoint must answer while the job is still running (the -race build is the
// real assertion here).
func TestJobTraceReadableMidRun(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, TraceDepth: 64})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", longSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace mid-run: status %d: %s", resp.StatusCode, body)
		}
		var trace struct {
			Total int64 `json:"total"`
		}
		if err := json.Unmarshal(body, &trace); err != nil {
			t.Fatal(err)
		}
		if trace.Total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never recorded an epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cleanup's Shutdown cancels the long run; just make sure it can.
	_ = svc
}
