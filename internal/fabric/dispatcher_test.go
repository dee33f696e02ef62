package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// fakeClock is a settable Clock for lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testCells builds n valid quick cells (distinct work scales so hashes
// differ).
func testCells(t testing.TB, n int) []hotpotato.SweepCell {
	t.Helper()
	cells := make([]hotpotato.SweepCell, n)
	for i := range cells {
		cells[i] = testCell(i)
	}
	return cells
}

// testCell is testCells' cell i.
func testCell(i int) hotpotato.SweepCell {
	var s hotpotato.RunSpec
	if err := json.Unmarshal([]byte(`{
		"platform":  {"width": 4, "height": 4},
		"scheduler": {"name": "hotpotato"},
		"workload":  {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.2}]}
	}`), &s); err != nil {
		panic(err)
	}
	// Distinct work scales keep every cell's SpecHash distinct (a seed would
	// not: canonicalization drops it for explicit workloads).
	s.Workload.Tasks[0].WorkScale = 0.2 + 0.01*float64(i)
	return hotpotato.SweepCell{Index: i, Spec: s.WithDefaults()}
}

// okRecord fabricates a worker result for testCells' cell index, carrying
// the cell's hash as a worker's record does.
func okRecord(index int) hotpotato.SweepResultRecord {
	hash, err := hotpotato.SpecHash(testCell(index).Spec)
	if err != nil {
		panic(err)
	}
	return hotpotato.SweepResultRecord{Type: "result", Index: index, Hash: hash, Status: "ok",
		Result: &hotpotato.Result{}}
}

func newTestDispatcher(clock Clock, maxRetries int) *Dispatcher {
	return NewDispatcher(Config{
		LeaseTTL:   10 * time.Second,
		MaxRetries: maxRetries,
		LeaseCells: 2,
		Clock:      clock,
	})
}

// TestLeaseExpiryRequeuesAtFront: a lease whose worker never heartbeats
// expires one TTL later; its cells return to the FRONT of the queue so the
// recovered cells (the sweep's critical path) go out on the very next lease.
func TestLeaseExpiryRequeuesAtFront(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	sweep := d.Submit(testCells(t, 4), "", "")

	dead := d.Lease("doomed", 2) // books cells 0,1
	if dead == nil || len(dead.Cells) != 2 {
		t.Fatalf("lease grant %+v, want 2 cells", dead)
	}

	// Before expiry nothing happens.
	if n := d.ExpireLeases(clock.Now().Add(5 * time.Second)); n != 0 {
		t.Fatalf("lease expired %d early", n)
	}
	// One TTL on, the lease dies and cells 0,1 lead the queue again.
	clock.Advance(11 * time.Second)
	if n := d.ExpireLeases(clock.Now()); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}

	next := d.Lease("healthy", 2)
	if next == nil || len(next.Cells) != 2 {
		t.Fatalf("re-lease grant %+v", next)
	}
	got := map[int]bool{next.Cells[0].Index: true, next.Cells[1].Index: true}
	if !got[0] || !got[1] {
		t.Fatalf("re-lease booked cells %v, want the expired 0 and 1 first", got)
	}

	// A late result on the dead lease is rejected so the worker abandons.
	if _, ok := d.PostResults(ResultsRequest{LeaseID: dead.ID, Records: []hotpotato.SweepResultRecord{okRecord(0)}}); ok {
		t.Fatal("dead lease accepted results")
	}
	if ok, _ := d.Heartbeat(dead.ID); ok {
		t.Fatal("dead lease accepted a heartbeat")
	}

	// Finish everything through live leases; the stream must hold exactly
	// one record per cell despite the expiry detour.
	if n, ok := d.PostResults(ResultsRequest{LeaseID: next.ID, Records: []hotpotato.SweepResultRecord{okRecord(0), okRecord(1)}}); !ok || n != 2 {
		t.Fatalf("results accepted=%d ok=%v", n, ok)
	}
	rest := d.Lease("healthy", 2)
	if n, ok := d.PostResults(ResultsRequest{LeaseID: rest.ID, Records: []hotpotato.SweepResultRecord{okRecord(2), okRecord(3)}}); !ok || n != 2 {
		t.Fatalf("results accepted=%d ok=%v", n, ok)
	}

	var indices []int
	for rec := range sweep.Records() {
		if rec.Status != "ok" {
			t.Errorf("cell %d status %q", rec.Index, rec.Status)
		}
		indices = append(indices, rec.Index)
	}
	if len(indices) != 4 {
		t.Fatalf("stream carried %d records, want 4: %v", len(indices), indices)
	}
	st, _ := d.SweepStatus(sweep.ID)
	if st.Completed != 4 || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("counts completed=%d failed=%d canceled=%d", st.Completed, st.Failed, st.Canceled)
	}
}

// TestLeaseExpiryHonorsHeartbeat: heartbeats (and result posts) push the
// deadline out, so a slow-but-alive worker never loses its lease.
func TestLeaseExpiryHonorsHeartbeat(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	d.Submit(testCells(t, 2), "", "")

	grant := d.Lease("slow", 2)
	for i := 0; i < 5; i++ {
		clock.Advance(8 * time.Second) // inside the 10s TTL each time
		if ok, _ := d.Heartbeat(grant.ID); !ok {
			t.Fatalf("heartbeat %d rejected", i)
		}
		if n := d.ExpireLeases(clock.Now()); n != 0 {
			t.Fatalf("heartbeated lease expired on round %d", i)
		}
	}
}

// TestLeaseRetryExhaustion: a cell whose lease expires more than MaxRetries
// times is reported "failed" instead of re-queued forever.
func TestLeaseRetryExhaustion(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 1) // 1 retry: second expiry fails the cell
	sweep := d.Submit(testCells(t, 1), "", "")

	for round := 0; round < 2; round++ {
		if grant := d.Lease("flaky", 1); grant == nil {
			t.Fatalf("round %d: no lease for the re-queued cell", round)
		}
		clock.Advance(11 * time.Second)
		if n := d.ExpireLeases(clock.Now()); n != 1 {
			t.Fatalf("round %d: expired %d leases", round, n)
		}
	}
	// bookings is now 2 > MaxRetries=1, so the cell failed on the second
	// expiry and the sweep closed.
	if grant := d.Lease("flaky", 1); grant != nil {
		t.Fatalf("exhausted cell re-leased: %+v", grant)
	}
	var recs []hotpotato.SweepResultRecord
	for rec := range sweep.Records() {
		recs = append(recs, rec)
	}
	if len(recs) != 1 || recs[0].Status != "failed" {
		t.Fatalf("records %+v, want one failed", recs)
	}
	if st, _ := d.SweepStatus(sweep.ID); st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
}

// TestResultsFirstWins: when an expired lease's cell completes on a second
// worker, a duplicate record for the same cell is dropped — the stream
// carries exactly one record per index.
func TestResultsFirstWins(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	sweep := d.Submit(testCells(t, 1), "", "")

	first := d.Lease("w1", 1)
	clock.Advance(11 * time.Second)
	d.ExpireLeases(clock.Now())
	second := d.Lease("w2", 1)

	if n, ok := d.PostResults(ResultsRequest{LeaseID: second.ID, Records: []hotpotato.SweepResultRecord{okRecord(0)}}); !ok || n != 1 {
		t.Fatalf("second lease results accepted=%d ok=%v", n, ok)
	}
	// w1 finally reports the same cell on its dead lease: rejected outright.
	if _, ok := d.PostResults(ResultsRequest{LeaseID: first.ID, Records: []hotpotato.SweepResultRecord{okRecord(0)}}); ok {
		t.Fatal("dead lease accepted a duplicate result")
	}

	count := 0
	for range sweep.Records() {
		count++
	}
	if count != 1 {
		t.Fatalf("stream carried %d records for one cell", count)
	}
}

// TestSubmitArchiveHit: cells whose hash is already archived replay
// immediately as Cached records, without ever entering the queue.
func TestSubmitArchiveHit(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	archive, err := NewArchive(t.TempDir(), clock)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(t, 2)
	hash0, err := hotpotato.SpecHash(cells[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := archive.Put(hash0, okRecord(99)); err != nil {
		t.Fatal(err)
	}

	d := NewDispatcher(Config{LeaseTTL: 10 * time.Second, LeaseCells: 2, Clock: clock, Archive: archive})
	sweep := d.Submit(cells, "", "")

	grant := d.Lease("w", 2)
	if grant == nil || len(grant.Cells) != 1 || grant.Cells[0].Index != 1 {
		t.Fatalf("lease %+v, want only the unarchived cell 1", grant)
	}
	d.PostResults(ResultsRequest{LeaseID: grant.ID, Records: []hotpotato.SweepResultRecord{okRecord(1)}})

	byIndex := map[int]hotpotato.SweepResultRecord{}
	for rec := range sweep.Records() {
		byIndex[rec.Index] = rec
	}
	if len(byIndex) != 2 {
		t.Fatalf("stream carried %d records, want 2", len(byIndex))
	}
	if !byIndex[0].Cached {
		t.Error("archived cell not marked Cached")
	}
	if byIndex[0].Index != 0 {
		t.Error("archive replay did not re-stamp the cell index")
	}
	if st, _ := d.SweepStatus(sweep.ID); st.CacheHits != 1 {
		t.Errorf("cacheHits = %d, want 1", st.CacheHits)
	}
}

// TestCancelReleasesLeasedCells: canceling a sweep finishes its pending AND
// leased cells immediately (canceled), closes the stream, and tells the
// worker on its next heartbeat.
func TestCancelReleasesLeasedCells(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDispatcher(clock, 3)
	sweep := d.Submit(testCells(t, 3), "", "")

	grant := d.Lease("w", 2) // cells 0,1 leased; 2 pending
	sweep.Cancel()

	// The stream closes without blocking on the leased cells.
	deadline := time.After(2 * time.Second)
	count := 0
	for {
		select {
		case _, ok := <-sweep.Records():
			if !ok {
				goto drained
			}
			count++
		case <-deadline:
			t.Fatal("record stream did not close after Cancel")
		}
	}
drained:
	if count != 0 {
		t.Fatalf("canceled sweep emitted %d records", count)
	}
	if st, _ := d.SweepStatus(sweep.ID); st.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3", st.Canceled)
	}
	if ok, _ := d.Heartbeat(grant.ID); ok {
		t.Fatal("lease of a canceled sweep still heartbeats")
	}
	if st := d.Snapshot(); st.ActiveSweeps != 0 || st.QueuedCells != 0 {
		t.Fatalf("snapshot after cancel: %+v", st)
	}
}

// TestRestartedDispatcherRejectsStaleResults: two dispatchers on one archive
// stand for one dispatcher before and after a restart. A worker still
// holding a lease of the first must not land its result in the second: the
// lease ID names no lease there, and a record posted on the second's own
// lease is refused unless it carries that lease's cell hash. Otherwise the
// second would archive another spec's result under its cell's hash, and
// every later sweep containing that spec would replay it.
func TestRestartedDispatcherRejectsStaleResults(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{now: time.Unix(1000, 0)}
	archive, err := NewArchive(dir, clock)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LeaseTTL: 10 * time.Second, LeaseCells: 1, Clock: clock, Archive: archive}
	before := NewDispatcher(cfg)
	drainSweep(before.Submit(testCells(t, 1), "", "")) // sweep X: cell 0
	stale := before.Lease("w", 1)

	clock.Advance(time.Minute)
	after := NewDispatcher(cfg)
	cellY := testCell(7)
	cellY.Index = 0
	drainSweep(after.Submit([]hotpotato.SweepCell{cellY}, "", "")) // sweep Y: another spec at index 0
	fresh := after.Lease("w", 1)
	if stale.ID == fresh.ID {
		t.Fatalf("lease ID %s repeats across the restart", fresh.ID)
	}

	staleRec := okRecord(0) // X's cell 0, hash and all
	if n, ok := after.PostResults(ResultsRequest{LeaseID: stale.ID, Records: []hotpotato.SweepResultRecord{staleRec}}); ok || n != 0 {
		t.Errorf("stale lease accepted=%d ok=%v, want rejected", n, ok)
	}
	if n, ok := after.PostResults(ResultsRequest{LeaseID: fresh.ID, Records: []hotpotato.SweepResultRecord{staleRec}}); !ok || n != 0 {
		t.Errorf("foreign-hash record accepted=%d ok=%v, want 0 accepted on a live lease", n, ok)
	}
	hashY, err := hotpotato.SpecHash(cellY.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := archive.Get(hashY); ok {
		t.Fatalf("archive holds %+v under Y's hash", rec)
	}
	good := staleRec
	good.Hash = hashY
	if n, ok := after.PostResults(ResultsRequest{LeaseID: fresh.ID, Records: []hotpotato.SweepResultRecord{good}}); !ok || n != 1 {
		t.Fatalf("matching record accepted=%d ok=%v", n, ok)
	}
	if _, ok := archive.Get(hashY); !ok {
		t.Error("matching record not archived")
	}
}

// TestSubmitIDsListNewestFirst: more than ten sweeps minted by Submit, some
// before a restart and some after, list newest first in the archive.
func TestSubmitIDsListNewestFirst(t *testing.T) {
	clock := &fakeClock{now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	archive, err := NewArchive(t.TempDir(), clock)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, n := range []int{11, 3} { // a restart between the two batches
		d := NewDispatcher(Config{LeaseTTL: 10 * time.Second, Clock: clock, Archive: archive})
		for range n {
			sw := d.Submit(nil, "", "") // no cells: the sweep closes at once
			ids = append(ids, sw.ID)
			clock.Advance(time.Millisecond)
		}
	}
	got := archive.RecentManifests(3)
	want := []string{ids[13], ids[12], ids[11]}
	if len(got) != 3 || got[0].SweepID != want[0] || got[1].SweepID != want[1] || got[2].SweepID != want[2] {
		t.Fatalf("RecentManifests(3) = %v, want %v", got, want)
	}
	all := archive.RecentManifests(len(ids))
	for i, m := range all {
		if m.SweepID != ids[len(ids)-1-i] {
			t.Fatalf("manifest %d is %s, want %s", i, m.SweepID, ids[len(ids)-1-i])
		}
	}
}

// TestNewDispatcherBoundsDefaultWhenNotPositive: 0 and -1 both select the
// positive default of the client stream's progress cadence and of the sweep
// span tree's depth. A traced sweep's lease grant carries a traceparent, and
// its recorder, filled one past the default depth, keeps exactly the default.
func TestNewDispatcherBoundsDefaultWhenNotPositive(t *testing.T) {
	for _, tc := range []struct {
		knob  string
		cfg   func(n int) Config
		bound func(t *testing.T, d *Dispatcher) int64
		want  int64
	}{
		{"Heartbeat", func(n int) Config { return Config{Heartbeat: time.Duration(n)} },
			func(_ *testing.T, d *Dispatcher) int64 { return int64(d.cfg.Heartbeat) },
			int64(10 * time.Second)},
		{"SweepSpanDepth", func(n int) Config { return Config{SweepSpanDepth: n} },
			func(t *testing.T, d *Dispatcher) int64 {
				sweep := d.Submit(testCells(t, 1), "", fixedTrace.Header())
				if g := d.Lease("w", 1); g.TraceParent == "" {
					t.Error("lease grant carries no traceparent")
				}
				spans := sweep.st.spans
				if spans == nil {
					t.Fatal("sweep has no span recorder")
				}
				for range obs.DefaultSpanDepth - 1 { // the sweep and lease spans hold two slots
					spans.Start("fill").End()
				}
				return int64(spans.Len())
			},
			obs.DefaultSpanDepth},
	} {
		for _, n := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s=%d", tc.knob, n), func(t *testing.T) {
				if got := tc.bound(t, NewDispatcher(tc.cfg(n))); got != tc.want {
					t.Errorf("%s %d: bound %d, want %d", tc.knob, n, got, tc.want)
				}
			})
		}
	}
}

// TestRunReturnDropsRoster: when Run returns, the workers still on the
// roster leave the process-wide fabric_workers gauge and the fleet gauge
// sums, so a stopped dispatcher leaks no workers into them.
func TestRunReturnDropsRoster(t *testing.T) {
	d := NewDispatcher(Config{LeaseTTL: time.Minute})
	const gauge = "run_return_test_queue_depth"
	workers := metricWorkers.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()
	for _, id := range []string{"w1", "w2"} {
		d.Lease(id, 1)
		d.FoldTelemetry(id, nil, map[string]float64{gauge: 2})
	}
	if got := metricWorkers.Value() - workers; got != 2 {
		t.Fatalf("fabric_workers moved by %g after two leases, want 2", got)
	}
	if got := fleetGauge(gauge).Value(); got != 4 {
		t.Fatalf("fleet gauge %g, want 4 (2+2)", got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if got := metricWorkers.Value(); got != workers {
		t.Errorf("fabric_workers %g after Run returned, want %g", got, workers)
	}
	if got := fleetGauge(gauge).Value(); got != 0 {
		t.Errorf("fleet gauge %g after Run returned, want 0", got)
	}
	if got := d.WorkerStatuses().Workers; len(got) != 0 {
		t.Errorf("roster %+v after Run returned, want empty", got)
	}
}
