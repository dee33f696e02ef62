package fabric_test

// End-to-end observability test: a client-supplied traceparent rides a sweep
// through the dispatcher and two pull-loop workers, one of which holds a
// leased cell hostage until it is killed. The assertions are the fleet
// observability contract itself — the status endpoint reports the requeue
// and attributes every completed cell to the survivor, and the merged span
// tree is rooted at the dispatcher's sweep span with the survivor's cell
// subtrees (each carrying an execute_spec descendant) grafted under its
// lease spans, all on the client's trace ID.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/service"
)

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// walkSpans visits every node of the merged tree with its parent (nil at the
// roots).
func walkSpans(nodes []*obs.SpanNode, parent *obs.SpanNode, visit func(n, parent *obs.SpanNode)) {
	for _, n := range nodes {
		visit(n, parent)
		walkSpans(n.Children, n, visit)
	}
}

func TestFabricEndToEndSpanMergeAndStatus(t *testing.T) {
	d := fabric.NewDispatcher(fabric.Config{
		LeaseTTL:   time.Second,
		LeaseCells: 1,
		Heartbeat:  time.Hour, // longer than the test: no progress records
	})
	reaperCtx, stopReaper := context.WithCancel(context.Background())
	defer stopReaper()
	go d.Run(reaperCtx)
	ds := httptest.NewServer(d.Handler())
	defer ds.Close()

	// The doomed worker swallows the first cell it leases and blocks until
	// killed — the deterministic stand-in for a worker dying mid-lease.
	doomedLeased := make(chan struct{})
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	defer killDoomed()
	doomedDone := make(chan struct{})
	doomed := &fabric.Worker{
		Dispatcher: ds.URL,
		ID:         "doomed",
		LeaseCells: 1,
		IdlePoll:   20 * time.Millisecond,
		Exec: func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
			select {
			case <-doomedLeased:
			default:
				close(doomedLeased)
			}
			<-ctx.Done()
			return nil, false, ctx.Err()
		},
	}
	go func() {
		defer close(doomedDone)
		doomed.Run(doomedCtx)
	}()

	// Submit with the client's own trace context and request ID: the sweep
	// must join that trace.
	clientTC := obs.TraceContext{TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331"}
	req, err := http.NewRequest(http.MethodPost, ds.URL+"/v1/batch", strings.NewReader(e2eSweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "e2e-trace-req")
	req.Header.Set(obs.TraceParentHeader, clientTC.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// Once the doomed worker is provably holding a cell, bring up the
	// survivor and kill the hostage-taker.
	select {
	case <-doomedLeased:
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never leased a cell")
	}
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(shCtx)
	})
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	survivor := &fabric.Worker{
		Dispatcher: ds.URL,
		ID:         "survivor",
		LeaseCells: 1,
		Exec:       svc.ExecuteCell,
		IdlePoll:   20 * time.Millisecond,
	}
	go survivor.Run(survivorCtx)
	killDoomed()
	<-doomedDone

	// Drain the stream: the sweep header names the sweep, and despite the
	// death every cell must complete exactly once.
	var sweepID string
	results := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r struct {
			Type    string `json:"type"`
			SweepID string `json:"sweep_id"`
			Status  string `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad record: %v\n%s", err, line)
		}
		switch r.Type {
		case "sweep":
			sweepID = r.SweepID
		case "result":
			if r.Status != "ok" {
				t.Errorf("cell finished %q, want ok", r.Status)
			}
			results++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sweepID == "" || results != 6 {
		t.Fatalf("stream: sweep_id %q, %d results (want 6)", sweepID, results)
	}

	// Status surface: the finished sweep stays queryable, reports the
	// requeue, carries the client's identifiers, and attributes all six
	// cells to the survivor.
	var st fabric.SweepStatus
	getJSON(t, ds.URL+"/v1/sweeps/"+sweepID, &st)
	if st.State != "done" || st.Total != 6 || st.Completed != 6 {
		t.Fatalf("status %+v, want done 6/6", st)
	}
	if st.Requeues < 1 {
		t.Errorf("requeues %d, want >= 1 (the doomed worker's cell)", st.Requeues)
	}
	if st.RequestID != "e2e-trace-req" {
		t.Errorf("request_id %q", st.RequestID)
	}
	if st.TraceID != clientTC.TraceID {
		t.Errorf("sweep trace ID %q, want the client's %q", st.TraceID, clientTC.TraceID)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "survivor" || st.Workers[0].Done != 6 {
		t.Errorf("worker attribution %+v, want survivor with 6 cells", st.Workers)
	}

	var list fabric.SweepList
	getJSON(t, ds.URL+"/v1/sweeps", &list)
	foundRecent := false
	for _, s := range list.Recent {
		foundRecent = foundRecent || s.SweepID == sweepID
	}
	if len(list.Active) != 0 || !foundRecent {
		t.Errorf("sweep list: %d active, recent contains sweep: %v", len(list.Active), foundRecent)
	}

	// Worker surface: the survivor is listed with its six cells. The doomed
	// worker is gone: its lease had to expire for the survivor to get its
	// cell, and the reaper pass that expired it dropped the silent worker.
	var workers fabric.WorkerList
	getJSON(t, ds.URL+"/fabric/v1/workers", &workers)
	byID := map[string]fabric.WorkerStatus{}
	for _, w := range workers.Workers {
		byID[w.ID] = w
	}
	if w, ok := byID["survivor"]; !ok || w.CellsDone != 6 {
		t.Errorf("survivor status %+v, want listed with 6 cells", byID["survivor"])
	}
	if _, ok := byID["doomed"]; ok {
		t.Errorf("doomed worker still listed after its lease expired: %+v", workers.Workers)
	}

	// The merged span tree: one sweep root on the client's trace, the
	// survivor's six cell subtrees grafted under lease spans, each cell
	// carrying worker attribution and an execute_spec descendant.
	var spans fabric.SweepSpans
	getJSON(t, ds.URL+"/v1/sweeps/"+sweepID+"/spans", &spans)
	if spans.TraceID != clientTC.TraceID {
		t.Errorf("span tree trace ID %q, want %q", spans.TraceID, clientTC.TraceID)
	}
	if len(spans.Spans) != 1 || spans.Spans[0].Name != "sweep" {
		t.Fatalf("want a single sweep root, got %d roots (first %q)", len(spans.Spans), spans.Spans[0].Name)
	}
	cells := 0
	for _, n := range spans.Spans[0].Children {
		if n.Name != "lease" {
			t.Errorf("non-lease span %q directly under the sweep root", n.Name)
		}
	}
	walkSpans(spans.Spans, nil, func(n, parent *obs.SpanNode) {
		if n.Name != "cell" {
			return
		}
		cells++
		if parent == nil || parent.Name != "lease" {
			t.Errorf("cell span not grafted under a lease span (parent %v)", parent)
			return
		}
		if got := n.Attrs["worker"]; got != "survivor" {
			t.Errorf("cell span worker attr %v, want survivor", got)
		}
		if got := parent.Attrs["worker"]; got != "survivor" {
			t.Errorf("lease span worker attr %v, want survivor", got)
		}
		if got := n.Attrs["trace_id"]; got != clientTC.TraceID {
			t.Errorf("cell span trace_id attr %v, want %q", got, clientTC.TraceID)
		}
		execs := 0
		walkSpans(n.Children, n, func(c, _ *obs.SpanNode) {
			if c.Name == "execute_spec" {
				execs++
			}
		})
		if execs != 1 {
			t.Errorf("cell span has %d execute_spec descendants, want 1", execs)
		}
	})
	if cells != 6 {
		t.Errorf("merged tree holds %d cell subtrees, want 6", cells)
	}
}
