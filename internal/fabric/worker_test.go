package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	hotpotato "repro"
	"repro/internal/obs"
)

// FuzzLeaseGrant decodes arbitrary bytes as a lease response, the way
// Worker.lease does, and runs the worker's lease execution on the grant
// against a dispatcher stub that accepts everything, with an Exec that
// simulates nothing. The worker must never panic (a grant with no usable
// ttl_ms included), must post records only for cells the grant booked, no
// cell more often than the grant booked it, and must name only the grant's
// lease on every post.
func FuzzLeaseGrant(f *testing.F) {
	cells := testCells(f, 2)
	for _, grant := range []*LeaseGrant{
		{ID: "lease-a", SweepID: "sweep-a", Cells: cells, TTLMS: 15000},
		{ID: "lease-b", Cells: cells[:1]},
		{ID: "lease-c", Cells: cells, TTLMS: -1, TraceParent: obs.NewTraceContext().Header()},
		{ID: "lease-d", Cells: []hotpotato.SweepCell{cells[0], cells[0]}, TTLMS: 1},
		{ID: "lease-e", Cells: []hotpotato.SweepCell{{Index: 3}}, TTLMS: 1 << 62},
		{ID: "", Cells: nil},
	} {
		body, err := json.Marshal(LeaseResponse{Lease: grant})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lease":{"id":"x","cells":[{"index":-7,"spec":{}}],"ttl_ms":0}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var resp LeaseResponse
		if json.NewDecoder(bytes.NewReader(body)).Decode(&resp) != nil || resp.Lease == nil {
			return // a lease error or an idle answer: the worker polls again
		}
		grant := resp.Lease
		booked := map[int]int{}
		for _, c := range grant.Cells {
			booked[c.Index]++
		}

		var mu sync.Mutex
		posted := map[int]int{}
		leaseIDs := map[string]bool{}
		stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			switch r.URL.Path {
			case "/fabric/v1/results":
				var req ResultsRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Errorf("undecodable results post: %v", err)
				}
				leaseIDs[req.LeaseID] = true
				for _, rec := range req.Records {
					posted[rec.Index]++
				}
				WriteJSON(w, http.StatusOK, ResultsResponse{Accepted: len(req.Records), OK: true})
			case "/fabric/v1/heartbeat":
				var req HeartbeatRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Errorf("undecodable heartbeat: %v", err)
				}
				leaseIDs[req.LeaseID] = true
				WriteJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
			default:
				t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
			}
		})

		w := &Worker{
			Dispatcher: "http://dispatcher.test",
			ID:         "fuzz",
			Client:     &http.Client{Transport: serveInProcess{stub}},
			Logger:     obs.NopLogger(),
			Exec: func(context.Context, hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
				return &hotpotato.Result{}, false, nil
			},
			lastCounters: map[string]int64{},
		}
		w.executeLease(context.Background(), grant)

		mu.Lock()
		defer mu.Unlock()
		for index, n := range posted {
			if n > booked[index] {
				t.Errorf("cell %d posted %d times, booked %d", index, n, booked[index])
			}
		}
		for id := range leaseIDs {
			if id != grant.ID {
				t.Errorf("post names lease %q, grant is %q", id, grant.ID)
			}
		}
	})
}

// serveInProcess is an http.RoundTripper that answers every request from a
// handler in the calling goroutine, without a listener.
type serveInProcess struct{ h http.Handler }

func (s serveInProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// TestWorkerRunSpanDepthDefaultWhenNotPositive: 0 and -1 both cap a traced
// cell's exported spans at DefaultCellSpanDepth. The cell starts one child
// span more than its root leaves room for; the results post must carry
// exactly the default and count the overflow as dropped.
func TestWorkerRunSpanDepthDefaultWhenNotPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		t.Run(fmt.Sprintf("SpanDepth=%d", n), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var posted []CellSpans
			leased := false
			stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/fabric/v1/lease":
					var resp LeaseResponse
					if !leased {
						leased = true
						resp.Lease = &LeaseGrant{ID: "lease-1", Cells: testCells(t, 1), TTLMS: 15000,
							TraceParent: obs.NewTraceContext().Header()}
					}
					WriteJSON(w, http.StatusOK, resp)
				case "/fabric/v1/results":
					var req ResultsRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						t.Errorf("undecodable results post: %v", err)
					}
					posted = append(posted, req.Spans...)
					cancel()
					WriteJSON(w, http.StatusOK, ResultsResponse{Accepted: len(req.Records), OK: true})
				default:
					WriteJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
				}
			})
			w := &Worker{
				Dispatcher: "http://dispatcher.test",
				Client:     &http.Client{Transport: serveInProcess{stub}},
				SpanDepth:  n,
				Exec: func(ctx context.Context, _ hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
					root := obs.SpanFromContext(ctx)
					for range DefaultCellSpanDepth {
						root.StartChild("fill").End()
					}
					return &hotpotato.Result{}, false, nil
				},
			}
			w.Run(ctx)
			if len(posted) != 1 {
				t.Fatalf("results posts carried %d cell span batches, want 1", len(posted))
			}
			if got := len(posted[0].Spans); got != DefaultCellSpanDepth || posted[0].Dropped != 1 {
				t.Errorf("exported %d spans, %d dropped; want %d and 1", got, posted[0].Dropped, DefaultCellSpanDepth)
			}
		})
	}
}
