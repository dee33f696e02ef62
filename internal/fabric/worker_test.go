package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

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
		{ID: "lease-c", Cells: cells, TTLMS: -1, TraceParent: fixedTrace.Header()},
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

// TestWorkerCellSpansCappedAtDefaultDepth: a traced cell exports at most
// DefaultCellSpanDepth spans and counts the overflow as dropped. With its root,
// a cell that starts DefaultCellSpanDepth-1 children fills the cap exactly and
// drops nothing; one more child is exported as a drop.
func TestWorkerCellSpansCappedAtDefaultDepth(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children int
		dropped  int64
	}{
		{"at_cap", DefaultCellSpanDepth - 1, 0},
		{"one_past_cap", DefaultCellSpanDepth, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
							TraceParent: fixedTrace.Header()}
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
				Exec: func(ctx context.Context, _ hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
					root := obs.SpanFromContext(ctx)
					for range tc.children {
						root.StartChild("fill").End()
					}
					return &hotpotato.Result{}, false, nil
				},
			}
			w.Run(ctx)
			if len(posted) != 1 {
				t.Fatalf("results posts carried %d cell span batches, want 1", len(posted))
			}
			if got := len(posted[0].Spans); got != DefaultCellSpanDepth || posted[0].Dropped != tc.dropped {
				t.Errorf("exported %d spans, %d dropped; want %d and %d",
					got, posted[0].Dropped, DefaultCellSpanDepth, tc.dropped)
			}
		})
	}
}

// TestUntracedSweepExportsNoSpans: a sweep submitted without a traceparent
// stays untraced end to end. An in-process worker executes its cells for
// real against the dispatcher's handler: no grant carries a traceparent, no
// results post carries cell spans, nothing is grafted, and the sweep's span
// tree holds only the dispatcher's own sweep and lease spans.
func TestUntracedSweepExportsNoSpans(t *testing.T) {
	d := NewDispatcher(Config{LeaseTTL: time.Minute, LeaseCells: 1})
	h := d.Handler()
	var mu sync.Mutex
	var grants []*LeaseGrant
	posts := 0
	tee := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/fabric/v1/results":
			var req ResultsRequest
			body, _ := io.ReadAll(r.Body)
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("undecodable results post: %v", err)
			}
			if len(req.Spans) != 0 {
				t.Errorf("untraced results post carries %d cell span batches", len(req.Spans))
			}
			posts++
			r.Body = io.NopCloser(bytes.NewReader(body))
		case "/fabric/v1/lease":
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var resp LeaseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("undecodable lease response: %v", err)
			}
			if resp.Lease != nil {
				grants = append(grants, resp.Lease)
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		h.ServeHTTP(w, r)
	})

	grafted := metricSpansGrafted.Value()
	sweep := d.Submit(testCells(t, 2), "", "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Dispatcher: "http://dispatcher.test",
		ID:         "w1",
		Client:     &http.Client{Transport: serveInProcess{tee}},
		IdlePoll:   time.Millisecond,
		Exec: func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
			res, err := hotpotato.ExecuteSpec(ctx, cell.Spec)
			return res, false, err
		},
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	for rec := range sweep.Records() {
		if rec.Status != "ok" {
			t.Errorf("cell %d finished %q: %s", rec.Index, rec.Status, rec.Error)
		}
	}
	cancel()
	<-stopped

	mu.Lock()
	defer mu.Unlock()
	if len(grants) != 2 || posts != 2 {
		t.Fatalf("%d grants, %d results posts; want 2 and 2", len(grants), posts)
	}
	for _, g := range grants {
		if g.TraceParent != "" {
			t.Errorf("untraced sweep's grant %s carries traceparent %q", g.ID, g.TraceParent)
		}
	}
	if got := metricSpansGrafted.Value() - grafted; got != 0 {
		t.Errorf("fabric_spans_grafted_total moved by %d", got)
	}
	st, _ := d.SweepStatus(sweep.ID)
	spans, _ := d.SweepSpans(sweep.ID)
	if st.TraceID != "" || spans.TraceID != "" {
		t.Errorf("untraced sweep has trace ID %q (status) / %q (spans)", st.TraceID, spans.TraceID)
	}
	hr := httptest.NewRecorder()
	h.ServeHTTP(hr, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sweep.ID+"/spans", nil))
	var tree SweepSpans
	if err := json.Unmarshal(hr.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "sweep" {
		t.Fatalf("want one sweep root, got %+v", tree.Spans)
	}
	if _, ok := tree.Spans[0].Attrs["trace_id"]; ok {
		t.Errorf("untraced sweep root has a trace_id attr: %v", tree.Spans[0].Attrs)
	}
	leases := tree.Spans[0].Children
	if len(leases) != 2 {
		t.Fatalf("sweep root has %d children, want its 2 lease spans", len(leases))
	}
	for _, l := range leases {
		if l.Name != "lease" || len(l.Children) != 0 {
			t.Errorf("span %q has %d children; want a lease span and none", l.Name, len(l.Children))
		}
	}
}
