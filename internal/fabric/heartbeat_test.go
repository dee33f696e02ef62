package fabric

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzHeartbeat posts arbitrary JSON bodies to POST /fabric/v1/heartbeat
// while one lease is live: the dispatcher must never panic, must answer
// ok:false for any lease it does not know (and ok:true for the live one),
// no federated fleet counter may ever go down, whatever the deltas say, no
// heartbeat may add a worker to the roster, and no heartbeat may create a
// fleet series for a name that does not federate (the dispatcher's own
// fabric_* and fleet_* families, invalid names).
func FuzzHeartbeat(f *testing.F) {
	for _, req := range []HeartbeatRequest{
		{WorkerID: "w1", LeaseID: "LIVE", Done: 1, Counters: map[string]int64{"hb_fuzz_cells_total": 3}},
		{WorkerID: "w1", LeaseID: "lease-999", Counters: map[string]int64{"hb_fuzz_cells_total": -3}},
		{WorkerID: "w2", LeaseID: "LIVE", Counters: map[string]int64{"hb_fuzz_cells_total": math.MaxInt64}},
		{WorkerID: "w2", Gauges: map[string]float64{"hb_fuzz_queue_depth": 2.5}},
		{WorkerID: "w3", Counters: map[string]int64{"9bad name": 1, "": 4}},
		{WorkerID: "w1", LeaseID: "LIVE",
			Counters: map[string]int64{"fabric_cells_total": 4, "fleet_sim_runs_total": 2},
			Gauges:   map[string]float64{"fabric_workers": 2, "fleet_fabric_queue_depth": 1}},
		// One name as both a counter and a gauge: fleet_<name> is one series.
		{WorkerID: "w1", Counters: map[string]int64{"hb_fuzz_twin": 1},
			Gauges: map[string]float64{"hb_fuzz_twin": 1}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"lease_id":"LIVE","counters":{"hb_fuzz_cells_total":9223372036854775807}}`))
	f.Add([]byte(`{"worker_id":"w1","gauges":{"hb_fuzz_queue_depth":1e308}}`))
	f.Add([]byte(`{"worker_id":"w1","counters":{"fleet_fleet_hb_fuzz_cells_total":1},"gauges":{"fabric_queue_depth":3}}`))
	f.Add([]byte(`not json`))

	cells := testCells(f, 2)
	f.Fuzz(func(t *testing.T, body []byte) {
		d := NewDispatcher(Config{LeaseTTL: time.Minute, LeaseCells: 2,
			Clock: &fakeClock{now: time.Unix(1000, 0)}})
		d.Submit(cells, "", "")
		grant := d.Lease("w1", 2)
		// The seeds name the live lease "LIVE"; the dispatcher's ID replaces it.
		body = bytes.ReplaceAll(body, []byte(`"LIVE"`), []byte(`"`+grant.ID+`"`))

		before := FleetCounters()
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/fabric/v1/heartbeat", bytes.NewReader(body)))
		for name, v := range FleetCounters() {
			if v < before[name] {
				t.Fatalf("fleet counter %q went down: %d → %d", name, before[name], v)
			}
		}
		if roster := d.WorkerStatuses().Workers; len(roster) != 1 {
			t.Fatalf("heartbeat grew the roster to %+v", roster)
		}
		fleetMu.Lock()
		for name := range fleetCounters {
			if !federates(name) {
				t.Errorf("fleet counter created for the non-federating name %q", name)
			}
		}
		for name := range fleetGauges {
			if !federates(name) {
				t.Errorf("fleet gauge created for the non-federating name %q", name)
			}
		}
		fleetMu.Unlock()
		var req HeartbeatRequest
		if json.Unmarshal(body, &req) != nil {
			return // a body the handler cannot decode answers 400
		}
		if w.Code != http.StatusOK {
			t.Fatalf("status %d for a decodable body: %s", w.Code, w.Body)
		}
		var resp HeartbeatResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable response %q: %v", w.Body, err)
		}
		if want := req.LeaseID == grant.ID; resp.OK != want {
			t.Fatalf("lease %q answered ok:%v, want %v (live lease %q)", req.LeaseID, resp.OK, want, grant.ID)
		}
	})
}
