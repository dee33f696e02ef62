package fabric

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// RunCell executes one sweep cell and reports (result, cache-hit, error) —
// the same shape as hotpotato.SweepOptions.Run. hotpotato-server plugs its
// cache-consulting executor in here, so fabric cells flow through the same
// ResultCache as the worker's own /v1/run traffic.
type RunCell func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error)

// DefaultCellSpanDepth caps the spans exported per cell. A cell's subtree is
// its root plus the service phases plus one span per scheduler epoch, so the
// cap keeps long simulations from shipping megabytes of epoch spans on every
// results post; the overflow is counted in CellSpans.Dropped.
const DefaultCellSpanDepth = 128

// Worker is the pull loop a hotpotato-server runs when given a dispatcher:
// lease → execute → post results → heartbeat, forever. Its first lease puts
// it on the dispatcher's roster. It never applies local policy (like the
// worker's own -solver default) to fabric cells — the dispatcher already
// finalized every spec, and a worker that rewrote them would break the
// fleet-wide hash agreement.
type Worker struct {
	// Dispatcher is the dispatcher's base URL (e.g. http://host:8080).
	Dispatcher string
	// ID is the worker's identity on the dispatcher's roster; empty means
	// the hostname plus a random suffix.
	ID string
	// LeaseCells is the per-lease cell ask; 0 accepts the dispatcher default.
	LeaseCells int
	// Exec executes one cell (required).
	Exec RunCell
	// Client is the HTTP client used for dispatcher calls; nil means a
	// client with a 30s timeout.
	Client *http.Client
	// Logger receives the worker's structured log stream; nil is quiet.
	Logger *slog.Logger
	// IdlePoll is the lease-poll interval while the queue is empty; 0 means
	// one second.
	IdlePoll time.Duration
	// SpanDepth caps the span records captured (and exported) per cell; ≤ 0
	// means DefaultCellSpanDepth.
	SpanDepth int

	// lastCounters is the previous heartbeat's counter snapshot — the
	// baseline the federation deltas are computed against. Only the (one at
	// a time) heartbeat goroutine touches it after Run seeds it.
	lastCounters map[string]int64
}

// Run pulls work until ctx is done. Transient dispatcher errors back off and
// retry: a worker outlives dispatcher restarts.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil {
		return fmt.Errorf("fabric: Worker.Exec is required")
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.Logger == nil {
		w.Logger = obs.NopLogger()
	}
	if w.IdlePoll <= 0 {
		w.IdlePoll = time.Second
	}
	if w.SpanDepth <= 0 {
		w.SpanDepth = DefaultCellSpanDepth
	}
	// Federation deltas start from here, not zero: a process hosting several
	// workers (tests) must not re-report the process counters per worker.
	w.lastCounters, _ = obs.Default().Values()

	if w.ID == "" {
		w.ID = mintWorkerID()
	}
	w.Logger.Info("fabric worker running", "worker", w.ID, "dispatcher", w.Dispatcher)

	for ctx.Err() == nil {
		grant, err := w.lease(ctx)
		if err != nil {
			w.Logger.Warn("fabric lease failed, retrying", "error", err.Error())
			sleepCtx(ctx, w.IdlePoll)
			continue
		}
		if grant == nil {
			sleepCtx(ctx, w.IdlePoll)
			continue
		}
		w.executeLease(ctx, grant)
	}
	return ctx.Err()
}

// mintWorkerID names a worker that was given no ID: the hostname plus a
// random suffix, so two such workers on one host stay distinct.
func mintWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	var suffix [4]byte
	// rand.Read fails only when the OS entropy source does; the zero suffix
	// then still names the host.
	_, _ = rand.Read(suffix[:])
	return fmt.Sprintf("%s-%x", host, suffix)
}

// heartbeatEvery is the heartbeat cadence for a lease of ttlMS: a third of
// the TTL tolerates two consecutive lost heartbeats. A grant without a
// usable TTL gets a third of DefaultLeaseTTL.
func heartbeatEvery(ttlMS int64) time.Duration {
	if ttlMS <= 0 || ttlMS > int64(math.MaxInt64/time.Millisecond) {
		return DefaultLeaseTTL / 3
	}
	return time.Duration(ttlMS) * time.Millisecond / 3
}

// executeLease runs one granted lease: cells sequentially (the worker's own
// /v1/run concurrency is governed by its serving stack; the fabric's
// parallelism comes from many workers, not many goroutines per lease), each
// result posted as it finishes, with a heartbeat goroutine keeping the lease
// alive. A heartbeat or results response with OK=false abandons the rest.
func (w *Worker) executeLease(ctx context.Context, grant *LeaseGrant) {
	w.Logger.Info("fabric lease accepted",
		"lease", grant.ID, "sweep", grant.SweepID, "cells", len(grant.Cells))

	// leaseCtx cancels cell execution when the lease dies under us
	// (dispatcher forgot it, or the sweep was canceled).
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var done int
	doneCh := make(chan int, len(grant.Cells))
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		tick := time.NewTicker(heartbeatEvery(grant.TTLMS))
		defer tick.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case n := <-doneCh:
				done = n
			case <-tick.C:
				resp, err := w.heartbeat(leaseCtx, grant.ID, done)
				if err != nil {
					// Transient: the lease TTL tolerates a few missed beats.
					w.Logger.Warn("fabric heartbeat failed", "lease", grant.ID, "error", err.Error())
					continue
				}
				if !resp.OK || resp.Canceled {
					w.Logger.Info("fabric lease abandoned",
						"lease", grant.ID, "ok", resp.OK, "canceled", resp.Canceled)
					cancel()
					return
				}
			}
		}
	}()

	// Span capture: when the grant carries a trace context, every cell runs
	// under a fresh bounded recorder whose root span joins the dispatcher's
	// trace (trace_id attr, lease span as remote parent). The recorder map
	// needs no lock — Workers: 1 below means the exec wrapper and the emit
	// callback share one goroutine.
	exec := w.Exec
	recorders := map[int]*obs.SpanRecorder{}
	tc, traced := obs.ParseTraceParent(grant.TraceParent)
	if traced {
		exec = func(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
			rec := obs.NewSpanRecorder(w.SpanDepth)
			recorders[cell.Index] = rec
			root := rec.Start("cell")
			root.SetAttr("index", cell.Index)
			root.SetAttr("worker", w.ID)
			root.SetAttr("trace_id", tc.TraceID)
			root.SetAttr("parent_span_id", tc.SpanID)
			ctx = obs.ContextWithTraceContext(obs.ContextWithSpan(ctx, root), tc)
			res, cached, err := w.Exec(ctx, cell)
			if cached {
				root.SetAttr("cached", true)
			}
			root.SetError(err)
			root.End()
			return res, cached, err
		}
	}

	// Cells run through the library's own sweep executor (Workers: 1 — the
	// fabric's parallelism is many workers, not many goroutines per lease),
	// so canonicalization, hashing, and result classification are the exact
	// code path a single-node /v1/batch uses. That shared path is what makes
	// a distributed sweep's (Index, Hash, Result) triples bit-identical to a
	// local run's.
	finished := 0
	hotpotato.ExecuteSweepCells(leaseCtx, grant.Cells, hotpotato.SweepOptions{
		Workers: 1,
		Run:     exec,
	}, func(cr hotpotato.SweepCellResult) {
		rec := hotpotato.NewSweepResultRecord(cr)
		if leaseCtx.Err() != nil && rec.Status == "canceled" {
			// Lease died under us: the dispatcher re-queues these cells, so
			// reporting them canceled would wrongly finish them.
			return
		}
		req := ResultsRequest{WorkerID: w.ID, LeaseID: grant.ID,
			Records: []hotpotato.SweepResultRecord{rec}}
		if sr := recorders[cr.Index]; sr != nil {
			delete(recorders, cr.Index)
			recs, runs := sr.Export()
			req.Spans = []CellSpans{{
				Index: cr.Index, Worker: w.ID, Spans: recs, Epochs: runs, Dropped: sr.Dropped(),
			}}
		}
		// Post with ctx, not leaseCtx: a result finished microseconds before
		// the lease was canceled is still worth delivering.
		resp, perr := w.postResults(ctx, req)
		if perr != nil {
			w.Logger.Warn("fabric results post failed", "lease", grant.ID, "error", perr.Error())
			// The cell is done but unreported; the lease expires and the cell
			// re-runs elsewhere (cheaply here, if this worker re-leases it —
			// its result is in the local cache).
			cancel()
			return
		}
		if !resp.OK {
			w.Logger.Info("fabric lease abandoned", "lease", grant.ID, "ok", false)
			cancel()
			return
		}
		finished += resp.Accepted
		select {
		case doneCh <- finished:
		default:
		}
	})
	cancel()
	<-hbStopped
	// Final telemetry flush, after the heartbeat goroutine is joined (the
	// telemetry snapshot is single-goroutine state). Short leases finish
	// before the first heartbeat tick ever fires, which would leave a fast
	// sweep entirely unfederated; the dispatcher folds the payload even when
	// the lease itself is already forgotten.
	if ctx.Err() == nil {
		if _, err := w.heartbeat(ctx, grant.ID, finished); err != nil {
			w.Logger.Warn("fabric telemetry flush failed", "lease", grant.ID, "error", err.Error())
		}
	}
}

func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var resp LeaseResponse
	err := w.post(ctx, "/fabric/v1/lease", LeaseRequest{WorkerID: w.ID, MaxCells: w.LeaseCells}, &resp)
	return resp.Lease, err
}

func (w *Worker) heartbeat(ctx context.Context, leaseID string, done int) (HeartbeatResponse, error) {
	counters, gauges := w.telemetry()
	var resp HeartbeatResponse
	err := w.post(ctx, "/fabric/v1/heartbeat",
		HeartbeatRequest{WorkerID: w.ID, LeaseID: leaseID, Done: done,
			Counters: counters, Gauges: gauges}, &resp)
	return resp, err
}

// telemetry assembles the federation payload: counter deltas since the last
// heartbeat (zero deltas omitted) and current gauge values, of the series
// that federate only — a worker sharing its dispatcher's registry must not
// send the dispatcher's fabric_* and fleet_* series back to it. Called only
// from the per-lease heartbeat goroutine — one at a time, joined before the
// next lease — so lastCounters needs no lock.
func (w *Worker) telemetry() (map[string]int64, map[string]float64) {
	counters, gauges := obs.Default().Values()
	deltas := make(map[string]int64)
	for name, v := range counters {
		if !federates(name) {
			continue
		}
		if d := v - w.lastCounters[name]; d > 0 {
			deltas[name] = d
		}
		w.lastCounters[name] = v
	}
	for name := range gauges {
		if !federates(name) {
			delete(gauges, name)
		}
	}
	return deltas, gauges
}

func (w *Worker) postResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := w.post(ctx, "/fabric/v1/results", req, &resp)
	return resp, err
}

// post is the one dispatcher RPC shape: JSON in, JSON out, any non-2xx is an
// error carrying the body's first line.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Dispatcher+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&env)
		return fmt.Errorf("%s: %s (%s)", path, resp.Status, env.Error.Message)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
