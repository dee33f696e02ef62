package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// drainSweep consumes a sweep's record stream in the background so results
// posts never block on the unread channel.
func drainSweep(sw *Sweep) {
	go func() {
		for range sw.Records() {
		}
	}()
}

func TestSweepStatusLifecycle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	client := obs.NewTraceContext()
	sweep := d.Submit(testCells(t, 4), "req-42", client.Header())
	drainSweep(sweep)

	st, ok := d.SweepStatus(sweep.ID)
	if !ok {
		t.Fatal("fresh sweep unknown to SweepStatus")
	}
	if st.State != "active" || st.Pending != 4 || st.Leased != 0 {
		t.Fatalf("fresh status %+v, want active/4 pending", st)
	}
	if st.TraceID != client.TraceID {
		t.Errorf("trace ID %s, want the client's %s", st.TraceID, client.TraceID)
	}
	if st.RequestID != "req-42" {
		t.Errorf("request ID %q", st.RequestID)
	}

	grant := d.Lease("w1", 2)
	st, _ = d.SweepStatus(sweep.ID)
	if st.Pending != 2 || st.Leased != 2 {
		t.Fatalf("after lease: %+v, want 2 pending / 2 leased", st)
	}

	clock.Advance(2 * time.Second)
	n, ok := d.PostResults(ResultsRequest{
		WorkerID: "w1", LeaseID: grant.ID,
		Records: []hotpotato.SweepResultRecord{okRecord(grant.Cells[0].Index), okRecord(grant.Cells[1].Index)},
	})
	if !ok || n != 2 {
		t.Fatalf("results accepted=%d ok=%v", n, ok)
	}

	st, _ = d.SweepStatus(sweep.ID)
	if st.Completed != 2 || st.Leased != 0 {
		t.Fatalf("after results: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" || st.Workers[0].Done != 2 {
		t.Fatalf("worker attribution %+v", st.Workers)
	}
	if st.ETAMS <= 0 {
		t.Errorf("ETA %v, want > 0 with 2/4 done", st.ETAMS)
	}

	// Finish the sweep; it must stay queryable from the recent ring.
	rest := d.Lease("w2", 2)
	d.PostResults(ResultsRequest{WorkerID: "w2", LeaseID: rest.ID,
		Records: []hotpotato.SweepResultRecord{okRecord(rest.Cells[0].Index), okRecord(rest.Cells[1].Index)}})
	st, ok = d.SweepStatus(sweep.ID)
	if !ok || st.State != "done" || st.Completed != 4 {
		t.Fatalf("closed sweep: ok=%v %+v", ok, st)
	}
	if st.ETAMS != 0 {
		t.Errorf("done sweep still reports ETA %v", st.ETAMS)
	}
	list := d.SweepStatuses(0)
	if len(list.Active) != 0 || len(list.Recent) != 1 || list.Recent[0].SweepID != sweep.ID {
		t.Fatalf("list %+v, want the sweep in recent only", list)
	}
}

func TestSweepStatusCountsRequeues(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	sweep := d.Submit(testCells(t, 2), "", "")
	drainSweep(sweep)

	d.Lease("doomed", 2)
	clock.Advance(11 * time.Second)
	d.ExpireLeases(clock.Now())

	st, _ := d.SweepStatus(sweep.ID)
	if st.Requeues != 2 {
		t.Fatalf("requeues %d, want 2 (one per recovered cell's lease expiry... counted per expiry cell)", st.Requeues)
	}
	if st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("after expiry %+v", st)
	}
}

func TestRecentSweepRingIsBounded(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDispatcher(Config{LeaseTTL: 10 * time.Second, LeaseCells: 4, Clock: clock, RecentSweeps: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		sw := d.Submit(testCells(t, 1), "", "")
		drainSweep(sw)
		g := d.Lease("w", 1)
		d.PostResults(ResultsRequest{WorkerID: "w", LeaseID: g.ID,
			Records: []hotpotato.SweepResultRecord{okRecord(g.Cells[0].Index)}})
		ids = append(ids, sw.ID)
	}
	if _, ok := d.SweepStatus(ids[0]); ok {
		t.Error("oldest sweep should have been evicted from the recent ring")
	}
	for _, id := range ids[1:] {
		if _, ok := d.SweepStatus(id); !ok {
			t.Errorf("sweep %s missing from the recent ring", id)
		}
	}
}

func TestSweepSpansMergeWorkerExports(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	sweep := d.Submit(testCells(t, 1), "", "")
	drainSweep(sweep)
	grant := d.Lease("w1", 1)
	if grant.TraceParent == "" {
		t.Fatal("lease grant carries no traceparent")
	}
	tc, ok := obs.ParseTraceParent(grant.TraceParent)
	if !ok {
		t.Fatalf("grant traceparent %q unparseable", grant.TraceParent)
	}

	// Simulate the worker's per-cell recorder export.
	rec := obs.NewSpanRecorder(8)
	cell := rec.Start("cell")
	cell.SetAttr("index", grant.Cells[0].Index)
	exec := cell.StartChild("execute_spec")
	exec.End()
	cell.End()

	d.PostResults(ResultsRequest{
		WorkerID: "w1", LeaseID: grant.ID,
		Records: []hotpotato.SweepResultRecord{okRecord(grant.Cells[0].Index)},
		Spans:   []CellSpans{{Index: grant.Cells[0].Index, Worker: "w1", Spans: rec.Records(), Dropped: 1}},
	})

	spans, ok := d.SweepSpans(sweep.ID)
	if !ok {
		t.Fatal("sweep spans unavailable")
	}
	if spans.TraceID != tc.TraceID {
		t.Errorf("spans trace ID %s, want the lease's %s", spans.TraceID, tc.TraceID)
	}
	if spans.Dropped != 1 {
		t.Errorf("dropped %d, want the worker-export 1", spans.Dropped)
	}
	if len(spans.Spans) != 1 || spans.Spans[0].Name != "sweep" {
		t.Fatalf("want one sweep root, got %+v", spans.Spans)
	}
	// sweep → lease → cell → execute_spec, all on one tree.
	var names []string
	var walk func(nodes []*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			names = append(names, n.Name)
			walk(n.Children)
		}
	}
	walk(spans.Spans)
	want := []string{"sweep", "lease", "cell", "execute_spec"}
	if len(names) != len(want) {
		t.Fatalf("merged span names %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("merged span names %v, want %v", names, want)
		}
	}
	// The dispatcher stamps authoritative worker attribution on the batch root.
	cellNode := spans.Spans[0].Children[0].Children[0]
	if cellNode.Attrs["worker"] != "w1" {
		t.Errorf("cell worker attr %v", cellNode.Attrs["worker"])
	}
}

// TestWorkerRosterJoinAndDrop: leasing is the only way onto the roster and
// the reaper the only way off it. A worker that keeps polling or holds a
// heartbeated lease stays listed; a silent worker without a lease is gone
// after the next ExpireLeases, its gauges out of the fleet sums; heartbeats
// for unknown leases never add a worker.
func TestWorkerRosterJoinAndDrop(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3) // TTL 10s
	const gauge = "roster_test_queue_depth"
	fleetSum := func() float64 {
		fleetMu.Lock()
		defer fleetMu.Unlock()
		return fleetGauges[gauge].Value()
	}
	roster := func() []string {
		var ids []string
		for _, w := range d.WorkerStatuses().Workers {
			ids = append(ids, w.ID)
		}
		return ids
	}

	for _, id := range []string{"silent", "idle"} {
		if g := d.Lease(id, 1); g != nil {
			t.Fatalf("%s leased %+v from an empty queue", id, g)
		}
	}
	d.FoldTelemetry("silent", nil, map[string]float64{gauge: 3})
	d.FoldTelemetry("idle", nil, map[string]float64{gauge: 4})
	drainSweep(d.Submit(testCells(t, 1), "", ""))
	grant := d.Lease("busy", 1)
	if grant == nil {
		t.Fatal("no lease for the pending cell")
	}
	if got := fleetSum(); got != 7 {
		t.Fatalf("fleet gauge %g, want 7 (3+4)", got)
	}

	workers := metricWorkers.Value()
	for round := 0; round < 3; round++ {
		clock.Advance(8 * time.Second) // inside the TTL each time
		d.Lease("idle", 1)
		if ok, _ := d.Heartbeat(grant.ID); !ok {
			t.Fatalf("round %d: live lease rejected its heartbeat", round)
		}
		d.ExpireLeases(clock.Now())
		want := "[busy idle]"
		if round == 0 {
			want = "[busy idle silent]" // 8s of silence is inside the TTL
		}
		if got := fmt.Sprint(roster()); got != want {
			t.Fatalf("round %d: roster %s, want %s", round, got, want)
		}
	}
	if got := fleetSum(); got != 4 {
		t.Errorf("fleet gauge %g after the drop, want 4 (idle's only)", got)
	}
	if got := metricWorkers.Value() - workers; got != -1 {
		t.Errorf("fabric_workers moved by %g, want -1", got)
	}

	workers = metricWorkers.Value()
	h := d.Handler()
	for i := range 1000 {
		body := fmt.Sprintf(`{"worker_id":"stranger-%d","lease_id":"none","gauges":{%q:1}}`, i, gauge)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/fabric/v1/heartbeat", strings.NewReader(body)))
		var resp HeartbeatResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || resp.OK {
			t.Fatalf("unknown-lease heartbeat answered %d %s", w.Code, w.Body)
		}
	}
	if got := fmt.Sprint(roster()); got != "[busy idle]" {
		t.Errorf("roster %s after unknown-lease heartbeats, want [busy idle]", got)
	}
	if got := metricWorkers.Value(); got != workers {
		t.Errorf("fabric_workers %g after unknown-lease heartbeats, want %g", got, workers)
	}
	if got := fleetSum(); got != 4 {
		t.Errorf("fleet gauge %g after unknown-lease heartbeats, want 4", got)
	}
}

func TestFoldTelemetry(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)

	base := FleetCounters()["status_test_cells_done_total"]
	d.FoldTelemetry("w1", map[string]int64{"status_test_cells_done_total": 5}, nil)
	d.FoldTelemetry("w2", map[string]int64{"status_test_cells_done_total": 7}, nil)
	// Negative and zero deltas are dropped, never subtracted.
	d.FoldTelemetry("w1", map[string]int64{"status_test_cells_done_total": -3}, nil)
	if got := FleetCounters()["status_test_cells_done_total"] - base; got != 12 {
		t.Errorf("federated counter delta %d, want 12", got)
	}

	// Gauges: sum of each listed worker's latest value.
	d.Lease("w1", 1)
	d.Lease("w2", 1)
	d.FoldTelemetry("w1", nil, map[string]float64{"status_test_queue_depth": 3})
	d.FoldTelemetry("w2", nil, map[string]float64{"status_test_queue_depth": 4})
	d.FoldTelemetry("w1", nil, map[string]float64{"status_test_queue_depth": 1}) // replaces w1's 3
	fleetMu.Lock()
	g := fleetGauges["status_test_queue_depth"]
	fleetMu.Unlock()
	if g == nil {
		t.Fatal("fleet gauge never created")
	}
	if got := g.Value(); got != 5 {
		t.Errorf("federated gauge %g, want 5 (1+4)", got)
	}

	// Hostile names never reach the registry.
	dropped := metricFleetSeriesDropped.Value()
	d.FoldTelemetry("w1", map[string]int64{"bad name\nwith newline": 1, "": 2}, nil)
	if got := metricFleetSeriesDropped.Value() - dropped; got != 2 {
		t.Errorf("invalid names dropped %d, want 2", got)
	}
	for _, name := range fleetCounterNames() {
		if !validMetricName(name) {
			t.Errorf("registry holds invalid federated name %q", name)
		}
	}
}

func TestValidMetricName(t *testing.T) {
	for name, want := range map[string]bool{
		"sim_runs_total": true,
		"a:b_c9":         true,
		"9starts_digit":  false,
		"":               false,
		"has space":      false,
		"has\nnewline":   false,
		"uni_cöde":       false,
	} {
		if got := validMetricName(name); got != want {
			t.Errorf("validMetricName(%q) = %v, want %v", name, got, want)
		}
	}
	if validMetricName(string(make([]byte, 200))) {
		t.Error("over-long name accepted")
	}
}

func TestRecentManifestsNewestFirst(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	archive, err := NewArchive(dir, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := archive.WriteManifest("sweep-000001", Manifest{SweepID: "sweep-000001", Total: 1}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(24 * time.Hour)
	if err := archive.WriteManifest("sweep-000002", Manifest{SweepID: "sweep-000002", Total: 2}); err != nil {
		t.Fatal(err)
	}
	if err := archive.WriteManifest("sweep-000003", Manifest{SweepID: "sweep-000003", Total: 3}); err != nil {
		t.Fatal(err)
	}

	got := archive.RecentManifests(10)
	if len(got) != 3 {
		t.Fatalf("%d manifests, want 3", len(got))
	}
	wantOrder := []string{"sweep-000003", "sweep-000002", "sweep-000001"}
	for i, w := range wantOrder {
		if got[i].SweepID != w {
			t.Fatalf("order %v, want %v", got, wantOrder)
		}
	}
	if got[0].Date != "2026-08-02" || got[2].Date != "2026-08-01" {
		t.Errorf("dates %s / %s", got[0].Date, got[2].Date)
	}
	if limited := archive.RecentManifests(1); len(limited) != 1 || limited[0].SweepID != "sweep-000003" {
		t.Errorf("limit=1 returned %+v", limited)
	}

	// Unreadable entries are skipped, not fatal.
	if err := writeAtomic(filepath.Join(dir, "sweeps", "2026-08-02", "junk.json"), []byte("{")); err != nil {
		t.Fatal(err)
	}
	if got := archive.RecentManifests(10); len(got) != 3 {
		t.Errorf("corrupt manifest changed the listing: %d rows", len(got))
	}
	var nilArchive *Archive
	if got := nilArchive.RecentManifests(5); got != nil {
		t.Errorf("nil archive returned %v", got)
	}
}
