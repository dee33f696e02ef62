package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// syncBuffer collects the server's structured log concurrently-safely, so
// tests can assert on access-log lines emitted from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every line of the captured log as JSON, failing the test
// on any line that is not a JSON object — the log stream contract.
func logLines(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

func newLoggedServer(t *testing.T, cfg Config) (*syncBuffer, *Server, string) {
	t.Helper()
	buf := &syncBuffer{}
	logger, err := obs.NewLogger(buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = logger
	svc, ts := newTestServer(t, cfg)
	return buf, svc, ts.URL
}

// doRequest issues req and returns the response with its body drained, so the
// middleware's access-log line has been emitted by the time we return.
func doRequest(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
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

func TestRequestIDEchoedAndLogged(t *testing.T) {
	buf, _, url := newLoggedServer(t, Config{Workers: 1})

	req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "caller-supplied-42")
	resp, _ := doRequest(t, req)
	if got := resp.Header.Get(RequestIDHeader); got != "caller-supplied-42" {
		t.Fatalf("response %s = %q, want the inbound ID echoed", RequestIDHeader, got)
	}

	var access map[string]any
	for _, rec := range logLines(t, buf.String()) {
		if rec["msg"] == "http request" && rec["request_id"] == "caller-supplied-42" {
			access = rec
			break
		}
	}
	if access == nil {
		t.Fatalf("no access-log line with the request ID in:\n%s", buf.String())
	}
	if access["method"] != "GET" || access["path"] != "/healthz" {
		t.Errorf("access line = %v", access)
	}
	if status, ok := access["status"].(float64); !ok || int(status) != http.StatusOK {
		t.Errorf("access line status = %v", access["status"])
	}
	if _, ok := access["duration_ms"].(float64); !ok {
		t.Errorf("access line missing duration_ms: %v", access)
	}
	if bytes, ok := access["bytes"].(float64); !ok || bytes <= 0 {
		t.Errorf("access line bytes = %v", access["bytes"])
	}
}

func TestRequestIDGeneratedWhenAbsentOrInvalid(t *testing.T) {
	_, _, url := newLoggedServer(t, Config{Workers: 1})

	cases := map[string]string{
		"absent":       "",
		"has_space":    "two words",
		"has_control":  "evil\tid",
		"has_high_bit": "id-\x80x",
		"too_long":     strings.Repeat("x", maxRequestIDLen+1),
	}
	for name, inbound := range cases {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
			if err != nil {
				t.Fatal(err)
			}
			if inbound != "" {
				req.Header.Set(RequestIDHeader, inbound)
			}
			resp, _ := doRequest(t, req)
			got := resp.Header.Get(RequestIDHeader)
			if got == "" || got == inbound {
				t.Fatalf("response ID = %q for inbound %q, want a generated one", got, inbound)
			}
			if !validRequestID(got) {
				t.Errorf("generated ID %q fails its own validation", got)
			}
		})
	}
}

// collectNames flattens a span tree into name → count.
func collectNames(nodes []*obs.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		collectNames(n.Children, into)
	}
}

func findChild(n *obs.SpanNode, name string) *obs.SpanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestTraceContextHonoredNeverMinted: the middleware adopts a valid
// traceparent and mints none. Without the header, or with a malformed one,
// neither the access-log line nor the job's root span carries a trace_id; a
// valid header's trace ID lands on both, with its span ID as the job root's
// parent.
func TestTraceContextHonoredNeverMinted(t *testing.T) {
	const traceID, spanID = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
	buf, _, url := newLoggedServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, header, want string
	}{
		{"absent", "", ""},
		{"malformed", "00-" + strings.ToUpper(traceID) + "-" + spanID + "-01", ""},
		{"valid", "00-" + traceID + "-" + spanID + "-01", traceID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rid := "trace-" + tc.name
			req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(quickSpecJSON))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(RequestIDHeader, rid)
			if tc.header != "" {
				req.Header.Set(obs.TraceParentHeader, tc.header)
			}
			resp, body := doRequest(t, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var job Job
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			waitForJob(t, url, job.ID)

			var access map[string]any
			for _, rec := range logLines(t, buf.String()) {
				if rec["msg"] == "http request" && rec["request_id"] == rid {
					access = rec
				}
			}
			if access == nil {
				t.Fatalf("no access-log line for %s", rid)
			}
			got, has := access["trace_id"]
			if tc.want == "" && has || tc.want != "" && got != tc.want {
				t.Errorf("access line trace_id = %v (present %v), want %q", got, has, tc.want)
			}

			resp, body = getJSON(t, url+"/v1/jobs/"+job.ID+"/spans")
			var envelope jobSpans
			if err := json.Unmarshal(body, &envelope); err != nil || len(envelope.Spans) != 1 {
				t.Fatalf("spans status %d: %s", resp.StatusCode, body)
			}
			attrs := envelope.Spans[0].Attrs
			got, has = attrs["trace_id"]
			if tc.want == "" && has || tc.want != "" && (got != tc.want || attrs["parent_span_id"] != spanID) {
				t.Errorf("job root attrs = %v, want trace_id %q", attrs, tc.want)
			}
		})
	}
}

func TestJobSpansEndpoint(t *testing.T) {
	_, _, url := newLoggedServer(t, Config{Workers: 2})

	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(quickSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "span-test-1")
	resp, body := doRequest(t, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.RequestID != "span-test-1" {
		t.Errorf("submitted job request_id = %q, want span-test-1", job.RequestID)
	}

	done := waitForJob(t, url, job.ID)
	if done.Status != JobDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}
	if done.RequestID != "span-test-1" {
		t.Errorf("finished job request_id = %q", done.RequestID)
	}
	if done.Profile == nil {
		t.Fatal("finished job has no profile")
	}
	if done.Profile.TotalNS <= 0 || done.Profile.Epochs <= 0 {
		t.Errorf("profile = %+v", done.Profile)
	}
	// The phases are measured, not derived: they never add up to more than
	// the job's end-to-end time, and the profile counts every epoch the run
	// made.
	p := done.Profile
	if sum := p.QueueNS + p.BuildNS + p.StateNS + p.DecideNS + p.ApplyNS + p.StepNS; sum > p.TotalNS {
		t.Errorf("profile phases sum to %d ns, more than the total %d ns: %+v", sum, p.TotalNS, *p)
	}
	if done.Result == nil || p.Epochs != done.Result.SchedulerInvocations {
		t.Errorf("profile counts %d epochs, result %+v", p.Epochs, done.Result)
	}

	resp, body = getJSON(t, url+"/v1/jobs/"+job.ID+"/spans")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans status %d: %s", resp.StatusCode, body)
	}
	var envelope jobSpans
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.ID != job.ID || envelope.Status != JobDone {
		t.Errorf("envelope = %s/%s", envelope.ID, envelope.Status)
	}
	if len(envelope.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(envelope.Spans))
	}
	root := envelope.Spans[0]
	if root.Name != "run" || !root.Done {
		t.Fatalf("root = %q done=%v", root.Name, root.Done)
	}
	if root.Attrs["job_id"] != job.ID || root.Attrs["request_id"] != "span-test-1" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if root.Attrs["status"] != string(JobDone) {
		t.Errorf("root status attr = %v", root.Attrs["status"])
	}

	names := map[string]int{}
	collectNames(envelope.Spans, names)
	for _, want := range []string{"slot_wait", "platform_build", "execute_spec", "workload_build", "simulate"} {
		if names[want] != 1 {
			t.Errorf("span %q appears %d times, want 1 (all names: %v)", want, names[want], names)
		}
	}
	if names["epoch"] == 0 {
		t.Error("no epoch spans recorded")
	}
	if names["epoch"] != done.Profile.Epochs {
		t.Errorf("%d epoch spans for %d profiled epochs", names["epoch"], done.Profile.Epochs)
	}

	exec := findChild(root, "execute_spec")
	if exec == nil {
		t.Fatal("execute_spec is not a direct child of run")
	}
	sim := findChild(exec, "simulate")
	if sim == nil {
		t.Fatal("simulate is not a child of execute_spec")
	}
	if len(sim.Children) != names["epoch"] {
		t.Errorf("epoch spans not nested under simulate: %d of %d", len(sim.Children), names["epoch"])
	}
	// The root covers the whole job: no child may outlast it.
	for _, c := range root.Children {
		if c.DurationNS > root.DurationNS {
			t.Errorf("child %q (%d ns) outlasts root (%d ns)", c.Name, c.DurationNS, root.DurationNS)
		}
	}

	// JSONL export: one parseable record per line, ndjson content type.
	resp, body = getJSON(t, url+"/v1/jobs/"+job.ID+"/spans?format=jsonl")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("jsonl content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if int64(len(lines)) != envelope.Total {
		t.Errorf("jsonl has %d lines, envelope total %d", len(lines), envelope.Total)
	}
	for _, line := range lines {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line not a SpanRecord: %v\n%s", err, line)
		}
	}

	resp, _ = getJSON(t, url+"/v1/jobs/no-such-job/spans")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job spans status = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentTracedJobs pushes several traced, logged jobs through the
// service at once (run under -race in CI): every job must keep its own
// request ID and a well-formed span tree — no cross-talk between recorders.
func TestConcurrentTracedJobs(t *testing.T) {
	const jobs = 6
	buf, _, url := newLoggedServer(t, Config{Workers: 4, QueueDepth: jobs})

	type submitted struct {
		requestID string
		job       Job
	}
	results := make([]submitted, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rid := fmt.Sprintf("concurrent-req-%d", i)
			req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(quickSpecJSON))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(RequestIDHeader, rid)
			resp, body := doRequest(t, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var job Job
			if err := json.Unmarshal(body, &job); err != nil {
				t.Error(err)
				return
			}
			results[i] = submitted{requestID: rid, job: job}
		}(i)
	}
	wg.Wait()

	seenIDs := make(map[string]bool, jobs)
	for i, sub := range results {
		if sub.job.ID == "" {
			t.Fatalf("job %d was not submitted", i)
		}
		done := waitForJob(t, url, sub.job.ID)
		if done.Status != JobDone {
			t.Fatalf("job %s ended %s: %s", sub.job.ID, done.Status, done.Error)
		}
		if done.RequestID != sub.requestID {
			t.Errorf("job %s carries request_id %q, submitted with %q", sub.job.ID, done.RequestID, sub.requestID)
		}
		if seenIDs[done.RequestID] {
			t.Errorf("request_id %q appears on more than one job", done.RequestID)
		}
		seenIDs[done.RequestID] = true

		_, body := getJSON(t, url+"/v1/jobs/"+sub.job.ID+"/spans")
		var envelope jobSpans
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("job %s spans: %v", sub.job.ID, err)
		}
		if len(envelope.Spans) != 1 || envelope.Spans[0].Name != "run" {
			t.Fatalf("job %s: %d roots", sub.job.ID, len(envelope.Spans))
		}
		root := envelope.Spans[0]
		if root.Attrs["job_id"] != sub.job.ID || root.Attrs["request_id"] != sub.requestID {
			t.Errorf("job %s root attrs = %v — span cross-talk", sub.job.ID, root.Attrs)
		}
		if !root.Done {
			t.Errorf("job %s root span left open", sub.job.ID)
		}
		names := map[string]int{}
		collectNames(envelope.Spans, names)
		for _, want := range []string{"slot_wait", "execute_spec", "simulate"} {
			if names[want] != 1 {
				t.Errorf("job %s: span %q count %d", sub.job.ID, want, names[want])
			}
		}
	}

	// Every request left exactly one access-log line, each a JSON object
	// carrying its own request ID.
	accessByID := map[string]int{}
	for _, rec := range logLines(t, buf.String()) {
		if rec["msg"] == "http request" {
			if id, ok := rec["request_id"].(string); ok {
				accessByID[id]++
			}
		}
	}
	for i := 0; i < jobs; i++ {
		rid := fmt.Sprintf("concurrent-req-%d", i)
		if accessByID[rid] == 0 {
			t.Errorf("no access-log line for %s", rid)
		}
	}
}
