package fabric

import (
	"path/filepath"
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

func TestSweepSpansDisabled(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := NewDispatcher(Config{LeaseTTL: 10 * time.Second, Clock: clock, SweepSpanDepth: -1})
	sweep := d.Submit(testCells(t, 1), "", "")
	drainSweep(sweep)
	if g := d.Lease("w", 1); g.TraceParent != "" {
		t.Errorf("span-disabled dispatcher leaked traceparent %q", g.TraceParent)
	}
	if _, ok := d.SweepSpans(sweep.ID); ok {
		t.Error("span-disabled dispatcher served sweep spans")
	}
	if st, ok := d.SweepStatus(sweep.ID); !ok || st.TraceID != "" {
		t.Errorf("span-disabled status ok=%v trace=%q", ok, st.TraceID)
	}
}

func TestWorkerStatusesHealth(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3) // TTL 10s
	d.Register(RegisterRequest{ID: "fresh", Capacity: 2})
	d.Register(RegisterRequest{ID: "lagging"})
	d.Register(RegisterRequest{ID: "gone"})

	// Age the workers differentially by touching them at different times.
	clock.Advance(31 * time.Second) // > 3×TTL for "gone" and "lagging"
	d.Lease("fresh", 1)             // refreshes lastSeen even with no work

	list := d.WorkerStatuses()
	if len(list.Workers) != 3 {
		t.Fatalf("%d workers, want 3", len(list.Workers))
	}
	byID := map[string]WorkerStatus{}
	for _, w := range list.Workers {
		byID[w.ID] = w
	}
	if byID["fresh"].Health != WorkerHealthOK {
		t.Errorf("fresh health %s", byID["fresh"].Health)
	}
	if byID["gone"].Health != WorkerHealthLost {
		t.Errorf("gone health %s", byID["gone"].Health)
	}
	if byID["fresh"].Capacity != 2 {
		t.Errorf("fresh capacity %d", byID["fresh"].Capacity)
	}
	// Sorted by ID for stable output.
	if list.Workers[0].ID != "fresh" || list.Workers[2].ID != "lagging" {
		t.Errorf("order %v", []string{list.Workers[0].ID, list.Workers[1].ID, list.Workers[2].ID})
	}

	// The late band: between one and three TTLs.
	clock2 := &fakeClock{now: time.Unix(2000, 0)}
	d2 := newTestDispatcher(clock2, 3)
	d2.Register(RegisterRequest{ID: "w"})
	clock2.Advance(15 * time.Second)
	if got := d2.WorkerStatuses().Workers[0].Health; got != WorkerHealthLate {
		t.Errorf("health %s, want late at 1.5×TTL", got)
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

	// Gauges: sum of each worker's latest value.
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
