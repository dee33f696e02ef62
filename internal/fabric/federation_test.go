package fabric_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestFederationSharedRegistryCarriesWorkerSeriesOnly runs a sweep through
// an in-process dispatcher and worker that share one process registry, the
// way fleet_sweep and single-process deployments do. The worker's
// heartbeats must federate its own series exactly once: no echo of the
// dispatcher's fabric_* or fleet_* series (which would surface as
// fleet_fabric_* and fleet_fleet_*), every simulation counted once in
// fleet_sim_runs_total, and nothing rejected by the fold.
func TestFederationSharedRegistryCarriesWorkerSeriesOnly(t *testing.T) {
	const n = 8
	workloads := make([]string, n/2)
	for i := range workloads {
		workloads[i] = fmt.Sprintf(`{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": %g}]}`,
			0.2+0.01*float64(i))
	}
	sweep := `{"base": {"platform": {"width": 4, "height": 4}},
		"axes": {"schedulers": [{"name": "hotpotato"}, {"name": "reactive"}],
		"workloads": [` + strings.Join(workloads, ",") + `]}}`

	d := fabric.NewDispatcher(fabric.Config{
		// A short TTL makes the worker heartbeat every 100 ms while it runs,
		// on top of the flush that ends each lease.
		LeaseTTL:   300 * time.Millisecond,
		LeaseCells: 2,
	})
	reaperCtx, stopReaper := context.WithCancel(context.Background())
	defer stopReaper()
	go d.Run(reaperCtx)
	ds := httptest.NewServer(d.Handler())
	defer ds.Close()

	svc := service.New(service.Config{Workers: 1})
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(shCtx)
	}()

	counter := func(name string) int64 {
		c, _ := obs.Default().Values()
		return c[name]
	}
	runsBefore := fabric.FleetCounters()["sim_runs_total"]
	droppedBefore := counter("fabric_fleet_series_dropped_total")

	workerCtx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		(&fabric.Worker{
			Dispatcher: ds.URL,
			ID:         "federation",
			Exec:       svc.ExecuteCell,
			IdlePoll:   20 * time.Millisecond,
		}).Run(workerCtx)
	}()
	defer func() {
		stopWorker()
		<-workerDone
	}()

	resp, err := http.Post(ds.URL+"/v1/batch", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, err %v: %s", resp.StatusCode, err, stream)
	}
	if got := strings.Count(string(stream), `"status":"ok"`); got != n {
		t.Fatalf("%d ok cells, want %d:\n%s", got, n, stream)
	}

	// The last lease's telemetry flush may land after the stream's summary:
	// wait for the runs to arrive, then stop the worker so no later
	// heartbeat can move the totals.
	for deadline := time.Now().Add(10 * time.Second); fabric.FleetCounters()["sim_runs_total"]-runsBefore < n; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopWorker()
	<-workerDone

	if got := fabric.FleetCounters()["sim_runs_total"] - runsBefore; got != n {
		t.Errorf("fleet_sim_runs_total moved by %d over a %d-cell sweep, want %d", got, n, n)
	}
	if got := counter("fabric_fleet_series_dropped_total") - droppedBefore; got != 0 {
		t.Errorf("fabric_fleet_series_dropped_total moved by %d, want 0", got)
	}
	counters, gauges := obs.Default().Values()
	names := make([]string, 0, len(counters)+len(gauges))
	for name := range counters {
		names = append(names, name)
	}
	for name := range gauges {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "fleet_fleet_") || strings.HasPrefix(name, "fleet_fabric_") {
			t.Errorf("registry holds the echoed series %s", name)
		}
	}
}
