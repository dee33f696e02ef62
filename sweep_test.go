package hotpotato_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
)

func decodeSweep(t *testing.T, doc string) hotpotato.SweepSpec {
	t.Helper()
	var s hotpotato.SweepSpec
	if err := json.Unmarshal([]byte(doc), &s); err != nil {
		t.Fatalf("decoding sweep %s: %v", doc, err)
	}
	return s
}

// quickSweepDoc is a 2 schedulers × 2 workloads sweep of cheap 4×4 runs.
const quickSweepDoc = `{
	"base": {"platform": {"width": 4, "height": 4}},
	"axes": {
		"schedulers": [{"name": "hotpotato"}, {"name": "reactive"}],
		"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 3, "work_scale": 0.3}]}
		]
	}
}`

func TestSweepCellCount(t *testing.T) {
	cases := []struct {
		doc  string
		want int
	}{
		{`{}`, 1},
		{`{"base":{"platform":{"width":4,"height":4}}}`, 1},
		{quickSweepDoc, 4},
		{`{"axes":{"solvers":["dense","sparse"],"seeds":[1,2,3]}}`, 6},
		{`{"axes":{"platforms":[{"width":4,"height":4},{"width":6,"height":6}],"seeds":[1,2]}}`, 4},
	}
	for _, c := range cases {
		if got := decodeSweep(t, c.doc).CellCount(); got != c.want {
			t.Errorf("CellCount(%s) = %d, want %d", c.doc, got, c.want)
		}
	}
}

func TestSweepCellCountSaturates(t *testing.T) {
	// 100^5 cells would overflow naive multiplication; the count must
	// saturate (and Expand must refuse) without materializing anything.
	axes := hotpotato.SweepAxes{}
	for i := 0; i < 100; i++ {
		axes.Seeds = append(axes.Seeds, int64(i))
		axes.Solvers = append(axes.Solvers, "dense")
		axes.Schedulers = append(axes.Schedulers, hotpotato.SchedulerSpec{Name: "hotpotato"})
		axes.Workloads = append(axes.Workloads, hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadRandom, Count: 1, Rate: 1})
		axes.Platforms = append(axes.Platforms, hotpotato.DefaultPlatformConfig(4, 4))
	}
	s := hotpotato.SweepSpec{Axes: axes}
	if got := s.CellCount(); got != hotpotato.MaxSweepCells+1 {
		t.Errorf("CellCount = %d, want saturation at %d", got, hotpotato.MaxSweepCells+1)
	}
	if _, err := s.Expand(); err == nil {
		t.Error("Expand accepted an oversized sweep")
	}
	if err := hotpotato.ExecuteSweep(context.Background(), s, hotpotato.SweepOptions{}, func(hotpotato.SweepCellResult) {}); err == nil {
		t.Error("ExecuteSweep accepted an oversized sweep")
	}
}

// TestSweepExpandOrderAndComposition pins the expansion order (platforms
// outermost … seeds innermost, innermost fastest) and the override
// composition: solvers write into the platform axis entry, seeds into the
// workload axis entry.
func TestSweepExpandOrderAndComposition(t *testing.T) {
	s := decodeSweep(t, `{
		"base": {"scheduler": {"name": "hotpotato"}, "workload": {"kind": "random", "count": 2, "rate": 50}},
		"axes": {
			"platforms": [{"width": 4, "height": 4}, {"width": 6, "height": 6}],
			"solvers": ["dense", "sparse"],
			"seeds": [10, 20]
		}
	}`)
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	for i, cell := range cells {
		if cell.Index != i {
			t.Errorf("cell %d carries Index %d", i, cell.Index)
		}
		wantWidth := 4
		if i >= 4 { // platforms axis is outermost
			wantWidth = 6
		}
		wantSolver := "dense"
		if (i/2)%2 == 1 { // solvers axis flips every 2 cells
			wantSolver = "sparse"
		}
		wantSeed := int64(10)
		if i%2 == 1 { // seeds axis is innermost, varies fastest
			wantSeed = 20
		}
		if cell.Spec.Platform.Width != wantWidth {
			t.Errorf("cell %d: width %d, want %d", i, cell.Spec.Platform.Width, wantWidth)
		}
		if cell.Spec.Platform.Thermal.Solver != wantSolver {
			t.Errorf("cell %d: solver %q, want %q (solver must compose over the platform axis)", i, cell.Spec.Platform.Thermal.Solver, wantSolver)
		}
		if cell.Spec.Workload.Seed != wantSeed {
			t.Errorf("cell %d: seed %d, want %d (seed must compose over the workload)", i, cell.Spec.Workload.Seed, wantSeed)
		}
		if cell.Spec.Scheduler.Name != "hotpotato" {
			t.Errorf("cell %d: scheduler %q leaked, want base's hotpotato", i, cell.Spec.Scheduler.Name)
		}
		// Axis platform entries decode over the paper defaults like a
		// RunSpec platform section.
		if cell.Spec.Platform.CoreEdge == 0 {
			t.Errorf("cell %d: platform axis entry missed the defaults overlay", i)
		}
	}

	// Expansion is deterministic: expanding twice yields identical cells.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("Expand is not deterministic")
	}
}

func TestSweepVersionPropagatesToCells(t *testing.T) {
	s := decodeSweep(t, `{"version":"v1","axes":{"seeds":[1,2]},"base":{"workload":{"kind":"random","count":1,"rate":10}}}`)
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if cell.Spec.Version != hotpotato.SpecVersion {
			t.Errorf("cell %d: version %q, want %q", cell.Index, cell.Spec.Version, hotpotato.SpecVersion)
		}
	}
	bad := decodeSweep(t, `{"version":"v9"}`)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown sweep version not rejected with a field error: %v", err)
	}
	if err := hotpotato.ExecuteSweep(context.Background(), bad, hotpotato.SweepOptions{}, func(hotpotato.SweepCellResult) {}); err == nil {
		t.Error("ExecuteSweep ran a sweep with an unknown version")
	}
	badSolver := decodeSweep(t, `{"axes":{"solvers":["cholesky"]}}`)
	if err := badSolver.Validate(); err == nil {
		t.Error("unknown solvers axis entry not rejected")
	}
}

// TestExecuteSweepEndToEnd runs the 2×2 quick sweep and checks the emitted
// results: one per cell, hashed, each a real simulation outcome.
func TestExecuteSweepEndToEnd(t *testing.T) {
	s := decodeSweep(t, quickSweepDoc)
	var mu []hotpotato.SweepCellResult
	err := hotpotato.ExecuteSweep(context.Background(), s, hotpotato.SweepOptions{Workers: 2}, func(r hotpotato.SweepCellResult) {
		mu = append(mu, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mu) != 4 {
		t.Fatalf("emitted %d results, want 4", len(mu))
	}
	seenIdx := map[int]bool{}
	hashes := map[string]bool{}
	for _, r := range mu {
		if seenIdx[r.Index] {
			t.Errorf("cell %d emitted twice", r.Index)
		}
		seenIdx[r.Index] = true
		if r.Err != nil {
			t.Errorf("cell %d failed: %v", r.Index, r.Err)
			continue
		}
		if r.Result == nil || len(r.Result.Tasks) == 0 {
			t.Errorf("cell %d: no tasks in result", r.Index)
		}
		if !strings.HasPrefix(r.Hash, "sha256:") {
			t.Errorf("cell %d: hash %q", r.Index, r.Hash)
		}
		hashes[r.Hash] = true
		if r.Spec.Version != hotpotato.SpecVersion {
			t.Errorf("cell %d: emitted spec not canonical (version %q)", r.Index, r.Spec.Version)
		}
	}
	if len(hashes) != 4 {
		t.Errorf("4 distinct cells produced %d distinct hashes", len(hashes))
	}
}

// TestExecuteSweepWorkerInvariance: the emitted (Index, Hash, Result) set is
// identical at any worker count — the determinism contract of the batch API.
func TestExecuteSweepWorkerInvariance(t *testing.T) {
	s := decodeSweep(t, quickSweepDoc)
	collect := func(workers int) map[int]string {
		t.Helper()
		out := map[int]string{}
		err := hotpotato.ExecuteSweep(context.Background(), s, hotpotato.SweepOptions{Workers: workers}, func(r hotpotato.SweepCellResult) {
			if r.Err != nil {
				t.Fatalf("workers=%d cell %d: %v", workers, r.Index, r.Err)
			}
			r.Result.SchedulerHostTime = 0
			b, err := json.Marshal(r.Result)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Index] = r.Hash + "|" + string(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := collect(1)
	for _, workers := range []int{2, 4, 8} {
		if got := collect(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d produced different results than workers=1", workers)
		}
	}
}

// TestExecuteSweepInvalidCellsAreEmittedNotFatal: a sweep with one bad cell
// still runs the others; the bad cell arrives as a per-cell error.
func TestExecuteSweepInvalidCellsAreEmitted(t *testing.T) {
	s := decodeSweep(t, `{
		"base": {"platform": {"width": 4, "height": 4}, "workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}},
		"axes": {"schedulers": [{"name": "hotpotato"}, {"name": "no-such-policy"}]}
	}`)
	var good, bad int
	err := hotpotato.ExecuteSweep(context.Background(), s, hotpotato.SweepOptions{}, func(r hotpotato.SweepCellResult) {
		if r.Err != nil {
			bad++
			if r.Hash != "" {
				t.Errorf("invalid cell carries hash %q", r.Hash)
			}
			if !strings.Contains(r.Err.Error(), fmt.Sprintf("cell %d", r.Index)) {
				t.Errorf("cell error does not name its index: %v", r.Err)
			}
		} else {
			good++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if good != 1 || bad != 1 {
		t.Errorf("good=%d bad=%d, want 1 and 1", good, bad)
	}
}

// TestExecuteSweepCancellation: cancelling mid-sweep fails the remaining
// cells with ErrCanceled and returns the context error.
func TestExecuteSweepCancellation(t *testing.T) {
	s := decodeSweep(t, `{
		"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "hotpotato"}},
		"axes": {"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}]},
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}], "seed": 1},
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}], "seed": 2},
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 100}], "seed": 3}
		]}
	}`)
	ctx, cancel := context.WithCancel(context.Background())
	var results []hotpotato.SweepCellResult
	done := make(chan error, 1)
	started := make(chan struct{}, 8)
	go func() {
		done <- hotpotato.ExecuteSweep(ctx, s, hotpotato.SweepOptions{
			Workers: 2,
			Run: func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
				started <- struct{}{}
				res, err := hotpotato.ExecuteSpec(ctx, cell.Spec)
				return res, false, err
			},
		}, func(r hotpotato.SweepCellResult) {
			results = append(results, r)
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("ExecuteSweep returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
	if len(results) != 4 {
		t.Fatalf("emitted %d results, want all 4 (canceled cells still emit)", len(results))
	}
	var canceled int
	for _, r := range results {
		if errors.Is(r.Err, hotpotato.ErrCanceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no cell reported ErrCanceled after mid-sweep cancellation")
	}
}

func TestNewSweepResultRecord(t *testing.T) {
	res := &hotpotato.Result{Scheduler: "hotpotato"}
	cases := []struct {
		name       string
		in         hotpotato.SweepCellResult
		status     string
		wantResult bool
		wantError  bool
	}{
		{"ok", hotpotato.SweepCellResult{Index: 3, Hash: "sha256:aa", Result: res}, "ok", true, false},
		{"cached ok", hotpotato.SweepCellResult{Result: res, Cached: true}, "ok", true, false},
		{"timeout keeps partial result", hotpotato.SweepCellResult{Result: res, Err: fmt.Errorf("wrap: %w", hotpotato.ErrTimeout)}, "ok", true, true},
		{"canceled drops result", hotpotato.SweepCellResult{Result: res, Err: fmt.Errorf("wrap: %w", hotpotato.ErrCanceled)}, "canceled", false, true},
		// Runners that surface the raw context errors (a worker's own
		// ctx.Err(), an HTTP client timeout) must classify as canceled, not
		// failed — misclassifying them made summaries blame the sweep for
		// its own shutdown.
		{"raw context.Canceled", hotpotato.SweepCellResult{Err: context.Canceled}, "canceled", false, true},
		{"raw deadline exceeded", hotpotato.SweepCellResult{Err: fmt.Errorf("run: %w", context.DeadlineExceeded)}, "canceled", false, true},
		{"failed", hotpotato.SweepCellResult{Err: errors.New("bad spec")}, "failed", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := hotpotato.NewSweepResultRecord(c.in)
			if rec.Type != "result" {
				t.Errorf("Type = %q", rec.Type)
			}
			if rec.Status != c.status {
				t.Errorf("Status = %q, want %q", rec.Status, c.status)
			}
			if (rec.Result != nil) != c.wantResult {
				t.Errorf("Result present = %v, want %v", rec.Result != nil, c.wantResult)
			}
			if (rec.Error != "") != c.wantError {
				t.Errorf("Error %q, want set=%v", rec.Error, c.wantError)
			}
			if rec.Index != c.in.Index || rec.Hash != c.in.Hash || rec.Cached != c.in.Cached {
				t.Errorf("record did not carry index/hash/cached through: %+v", rec)
			}
		})
	}
}

// TestSweepSummaryObserve pins the counter classification every summary
// producer (service stream, fabric dispatcher, CLI) shares: the four terminal
// states partition into the three counters, cache hits tally orthogonally, and
// the counters sum back to the cell count.
func TestSweepSummaryObserve(t *testing.T) {
	res := &hotpotato.Result{Scheduler: "hotpotato"}
	cells := []hotpotato.SweepCellResult{
		{Index: 0, Result: res},                                                 // ok
		{Index: 1, Result: res, Cached: true},                                   // ok + cache hit
		{Index: 2, Result: res, Err: fmt.Errorf("w: %w", hotpotato.ErrTimeout)}, // ok (partial)
		{Index: 3, Err: fmt.Errorf("w: %w", hotpotato.ErrCanceled)},             // canceled
		{Index: 4, Err: context.Canceled},                                       // canceled (raw)
		{Index: 5, Err: context.DeadlineExceeded},                               // canceled (raw)
		{Index: 6, Err: errors.New("boom")},                                     // failed
	}
	summary := hotpotato.SweepSummary{Type: "summary", Total: len(cells)}
	for _, c := range cells {
		summary.Observe(hotpotato.NewSweepResultRecord(c))
	}
	if summary.Completed != 3 || summary.Canceled != 3 || summary.Failed != 1 {
		t.Errorf("counters completed=%d canceled=%d failed=%d, want 3/3/1",
			summary.Completed, summary.Canceled, summary.Failed)
	}
	if summary.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", summary.CacheHits)
	}
	if sum := summary.Completed + summary.Canceled + summary.Failed; sum != summary.Total {
		t.Errorf("counters sum to %d, want Total %d — terminal states must partition", sum, summary.Total)
	}
	// Unknown statuses (a future record type from a newer worker) count as
	// failed so the partition invariant survives version skew.
	var skew hotpotato.SweepSummary
	skew.Observe(hotpotato.SweepResultRecord{Status: "mystery"})
	if skew.Failed != 1 {
		t.Errorf("unknown status counted as %+v, want Failed=1", skew)
	}
}

// TestSweepRecordsRoundTrip: every stream record type survives a JSON round
// trip with its discriminator intact — the NDJSON wire contract.
func TestSweepRecordsRoundTrip(t *testing.T) {
	records := []any{
		hotpotato.SweepStarted{Type: "sweep", Total: 4, RequestID: "r1"},
		hotpotato.SweepResultRecord{Type: "result", Index: 2, Hash: "sha256:ab", Status: "ok"},
		hotpotato.SweepProgress{Type: "progress", Done: 2, Total: 4, ElapsedMS: 10.5},
		hotpotato.SweepSummary{Type: "summary", Total: 4, Completed: 3, Failed: 1, ElapsedMS: 99},
	}
	var types []string
	for _, rec := range records {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(b, &disc); err != nil {
			t.Fatal(err)
		}
		types = append(types, disc.Type)
	}
	sort.Strings(types)
	if want := []string{"progress", "result", "summary", "sweep"}; !reflect.DeepEqual(types, want) {
		t.Errorf("record discriminators %v, want %v", types, want)
	}
}
