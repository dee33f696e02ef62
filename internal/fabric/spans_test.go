package fabric

// The results post's epoch runs (CellSpans.Epochs) against the record form
// an older worker sends: for the same cell, the dispatcher's merged trace
// must serve the same spans either way.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// fixedTrace makes two dispatchers' sweeps share one trace ID.
var fixedTrace = obs.TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"}

// cellSpans runs one real cell under a per-cell recorder, as a worker does.
func cellSpans(t *testing.T, cell hotpotato.SweepCell) *obs.SpanRecorder {
	t.Helper()
	rec := obs.NewSpanRecorder(1 << 12)
	root := rec.Start("cell")
	root.SetAttr("index", cell.Index)
	root.SetAttr("worker", "w1")
	if _, err := hotpotato.ExecuteSpec(obs.ContextWithSpan(context.Background(), root), cell.Spec); err != nil {
		t.Fatal(err)
	}
	root.End()
	return rec
}

// mergedSpans submits cells to a fresh dispatcher keeping depth spans per
// sweep, leases cell 0 to w1, posts its result with cs through the HTTP
// handler, and returns the sweep's span tree and JSON Lines, with the
// timings of the dispatcher's own live spans zeroed.
func mergedSpans(t *testing.T, cells []hotpotato.SweepCell, depth int, cs CellSpans) (SweepSpans, []obs.SpanRecord) {
	t.Helper()
	d := NewDispatcher(Config{LeaseTTL: time.Minute, LeaseCells: 1, SweepSpanDepth: depth,
		Clock: &fakeClock{now: time.Unix(1000, 0)}})
	sweep := d.Submit(cells, "", fixedTrace.Header())
	grant := d.Lease("w1", 1)
	body, err := json.Marshal(ResultsRequest{WorkerID: "w1", LeaseID: grant.ID,
		Records: []hotpotato.SweepResultRecord{okRecord(0)}, Spans: []CellSpans{cs}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path string, body []byte) []byte {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	serve(http.MethodPost, "/fabric/v1/results", body)

	live := func(r *obs.SpanRecord) {
		if r.Name == "sweep" || r.Name == "lease" {
			r.StartUnixNS, r.DurationNS = 0, 0
		}
	}
	var tree SweepSpans
	if err := json.Unmarshal(serve(http.MethodGet, "/v1/sweeps/"+sweep.ID+"/spans", nil), &tree); err != nil {
		t.Fatal(err)
	}
	var walk func([]*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			live(&n.SpanRecord)
			walk(n.Children)
		}
	}
	walk(tree.Spans)
	var lines []obs.SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(string(serve(http.MethodGet, "/v1/sweeps/"+sweep.ID+"/spans?format=jsonl", nil))), "\n") {
		var r obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		live(&r)
		lines = append(lines, r)
	}
	return tree, lines
}

func jsonEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Errorf("%s differ:\n got %.600s\nwant %.600s", what, g, w)
	}
}

// TestPostResultsEpochRunsMatchRecordForm: a worker's Export posted by
// column and its Records posted by record (an older worker) serve the same
// merged trace, in full and truncated at the sweep capacity inside the
// first run or before it, with the same Total and Dropped.
func TestPostResultsEpochRunsMatchRecordForm(t *testing.T) {
	cells := testCells(t, 2)
	rec := cellSpans(t, cells[0])
	records, runs := rec.Export()
	if len(runs) == 0 || runs[0].Len() < 4 {
		t.Fatalf("cell exported %d runs; want epoch spans", len(runs))
	}
	byColumn := CellSpans{Index: 0, Worker: "w1", Spans: records, Epochs: runs, Dropped: 2}
	byRecord := CellSpans{Index: 0, Worker: "w1", Spans: rec.Records(), Dropped: 2}
	mid := 2 + runs[0].At + runs[0].Len()/2 // sweep, lease, the records before the run, half the run
	for _, depth := range []int{0, mid, 3} {
		gotTree, gotLines := mergedSpans(t, cells, depth, byColumn)
		wantTree, wantLines := mergedSpans(t, cells, depth, byRecord)
		jsonEqual(t, "span trees", gotTree, wantTree)
		jsonEqual(t, "span lines", gotLines, wantLines)
		if depth == 0 && len(gotLines) != 2+rec.Len() {
			t.Errorf("merged trace holds %d spans, want %d", len(gotLines), 2+rec.Len())
		}
		if depth > 0 && (len(gotLines) != depth || gotTree.Dropped != int64(2+rec.Len()-depth+2)) {
			t.Errorf("depth %d: %d spans, Dropped %d", depth, len(gotLines), gotTree.Dropped)
		}
		for _, r := range gotLines {
			if r.Name == "cell" && r.Attrs["worker"] != "w1" {
				t.Errorf("cell root worker attr %v", r.Attrs["worker"])
			}
		}
	}
}

// TestPostResultsOrphanRunGraftsAsRoots: a run whose parent is not in the
// batch grafts as records under the lease span, each with the lease's
// worker stamped on it.
func TestPostResultsOrphanRunGraftsAsRoots(t *testing.T) {
	cells := testCells(t, 1)
	run := obs.EpochRun{At: 1, Parent: 99, First: 2,
		StartUnixNS: []int64{10, 20, 30}, DurationNS: []int64{5, 5, 5}, Epoch: []int{0, 1, 2},
		SimTimeS: []float64{0, 5e-4, 1e-3}, DecideNS: []int64{7, 8, 9}, Migrations: []int{0, 2, 0}}
	_, lines := mergedSpans(t, cells, 0, CellSpans{Index: 0, Worker: "forged",
		Spans: []obs.SpanRecord{{ID: 1, Name: "cell", Done: true}}, Epochs: []obs.EpochRun{run}})
	if len(lines) != 6 {
		t.Fatalf("%d spans, want sweep, lease, cell and 3 epochs", len(lines))
	}
	lease := lines[1].ID
	for i, r := range lines[2:] {
		if r.Parent != lease || r.Attrs["worker"] != "w1" {
			t.Errorf("span %d (%s): parent %d, worker %v; want lease %d, w1", i, r.Name, r.Parent, r.Attrs["worker"], lease)
		}
		if r.Name == "epoch" && r.Attrs["decide_ns"] != float64(7+i-1) {
			t.Errorf("epoch span %d: decide_ns %v", i, r.Attrs["decide_ns"])
		}
	}
}

// TestPostResultsIgnoresNegativeDropped: a results post claiming a negative
// export drop count cannot lower the sweep's reported drops.
func TestPostResultsIgnoresNegativeDropped(t *testing.T) {
	cells := testCells(t, 1)
	tree, _ := mergedSpans(t, cells, 0, CellSpans{Index: 0, Worker: "w1",
		Spans: []obs.SpanRecord{{ID: 1, Name: "cell", Done: true}}, Dropped: -5})
	if tree.Total != 3 || tree.Dropped != 0 {
		t.Errorf("Total %d, Dropped %d; want 3 and 0", tree.Total, tree.Dropped)
	}
}

// FuzzPostResults posts arbitrary JSON bodies for a leased cell: the
// dispatcher must never panic, never keep more than its span capacity or
// report a negative drop count, and serve what it kept.
func FuzzPostResults(f *testing.F) {
	rec := obs.NewSpanRecorder(64)
	root := rec.Start("cell")
	exec := root.StartChild("execute_spec")
	for i := range 5 {
		exec.RecordEpoch(obs.EpochEvent{Epoch: i, Time: float64(i) * 5e-4, WallNS: 100, Migrations: i % 2})
	}
	exec.StartChild("mark").End()
	exec.RecordEpoch(obs.EpochEvent{Epoch: 5, WallNS: 100})
	exec.End()
	root.End()
	records, runs := rec.Export()
	for _, cs := range []CellSpans{
		{Index: 0, Spans: records, Epochs: runs},
		{Index: 1, Spans: rec.Records(), Dropped: 3},
		{Index: 0, Spans: records, Epochs: []obs.EpochRun{{At: 9, First: 3, StartUnixNS: []int64{1}}}},
		{Index: 0, Spans: records[:1], Epochs: []obs.EpochRun{runs[0], runs[0]}},
	} {
		body, err := json.Marshal(ResultsRequest{Spans: []CellSpans{cs}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"spans":[{"index":0,"epochs":[{"at":0,"first":-1,"start_unix_ns":[1,2],"duration_ns":[1]}]}]}`))
	f.Add([]byte(`{"spans":[{"index":0,"spans":[{"id":1,"name":"cell"}],"dropped":-5}]}`))

	cells := testCells(f, 2)
	const depth = 16
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ResultsRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		d := NewDispatcher(Config{LeaseTTL: time.Minute, LeaseCells: 2, SweepSpanDepth: depth,
			Clock: &fakeClock{now: time.Unix(1000, 0)}})
		sweep := d.Submit(cells, "", "")
		grant := d.Lease("w1", 2)
		req.LeaseID = grant.ID
		req.Records = append([]hotpotato.SweepResultRecord{okRecord(0), okRecord(1)}, req.Records...)
		d.PostResults(req)
		spans := sweep.st.spans
		if n := spans.Len(); n > depth {
			t.Fatalf("sweep keeps %d spans, capacity %d", n, depth)
		}
		if n := len(spans.Records()); n != spans.Len() {
			t.Fatalf("Records holds %d spans, Len %d", n, spans.Len())
		}
		tree, ok := d.SweepSpans(sweep.ID)
		if !ok {
			t.Fatal("sweep spans unavailable")
		}
		if tree.Dropped < 0 {
			t.Fatalf("sweep reports %d dropped spans", tree.Dropped)
		}
		if err := spans.WriteJSONL(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	})
}
