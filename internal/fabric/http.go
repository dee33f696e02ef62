package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	hotpotato "repro"
	"repro/internal/obs"
)

// Handler is the dispatcher's HTTP surface. Client-facing:
//
//	POST /v1/batch              same wire contract as hotpotato-server's /v1/batch
//	GET  /v1/sweeps             active + recent sweeps, plus archive manifests
//	GET  /v1/sweeps/{id}        one sweep's status (counts, throughput, ETA)
//	GET  /v1/sweeps/{id}/spans  the merged fleet span tree (?format=jsonl for records)
//	GET  /healthz               dispatcher Stats plus fleet_* counter snapshot
//	GET  /metrics               Prometheus text exposition
//
// Worker-facing (the wire.go types):
//
//	POST /fabric/v1/lease
//	POST /fabric/v1/heartbeat
//	POST /fabric/v1/results
//	GET  /fabric/v1/workers     the worker roster: lease holders and recent callers
//
// Errors use the v1 envelope (WriteError) shared with the single-node
// server, so one client error path covers both.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", d.handleBatch)
	mux.HandleFunc("GET /v1/sweeps", d.handleSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", d.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/spans", d.handleSweepSpans)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("POST /fabric/v1/lease", d.handleLease)
	mux.HandleFunc("POST /fabric/v1/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("POST /fabric/v1/results", d.handleResults)
	mux.HandleFunc("GET /fabric/v1/workers", d.handleWorkers)
	return mux
}

// handleBatch is the dispatcher's client-facing sweep endpoint: the shared
// /v1/batch contract (AdmitSweep, StreamSweep), except that the header also
// carries the sweep_id naming the archive entry. Cells are executed by
// leased workers instead of a local pool.
func (d *Dispatcher) handleBatch(w http.ResponseWriter, r *http.Request) {
	cells, status, err := AdmitSweep(r.Body, d.cfg.MaxSweepCells)
	if err != nil {
		WriteError(w, status, err)
		return
	}
	requestID := r.Header.Get("X-Request-Id")
	sweep := d.Submit(cells, requestID, r.Header.Get(obs.TraceParentHeader))
	// A client disconnect cancels the sweep; cancelation finishes every
	// outstanding cell, which closes the record channel and so ends the
	// stream loop.
	defer context.AfterFunc(r.Context(), sweep.Cancel)()

	d.logger.Info("fabric batch started",
		"sweep", sweep.ID, "cells", sweep.Total, "sse", WantsSSE(r))
	stream := NewRecordStream(w, WantsSSE(r), func(typ, reason string) {
		metricDroppedRecords.Inc()
		d.logger.Warn("fabric dropped stream record", "sweep", sweep.ID, "record", typ, "reason", reason)
	})
	summary := StreamSweep(stream, hotpotato.SweepStarted{
		Type: "sweep", Total: sweep.Total, RequestID: requestID, SweepID: sweep.ID,
	}, sweep.Records(), d.cfg.Heartbeat)
	d.logger.Info("fabric batch finished",
		"sweep", sweep.ID, "completed", summary.Completed, "failed", summary.Failed,
		"canceled", summary.Canceled, "cache_hits", summary.CacheHits,
		"dropped", stream.Dropped())
}

func (d *Dispatcher) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Stats
		// Fleet is the federated counter snapshot (worker metric name →
		// folded value), omitted until a worker has heartbeated telemetry.
		Fleet map[string]int64 `json:"fleet,omitempty"`
	}{d.Snapshot(), FleetCounters()})
}

func (d *Dispatcher) handleSweeps(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, d.SweepStatuses(50))
}

func (d *Dispatcher) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := d.SweepStatus(id)
	if !ok {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("sweep %q is neither active nor retained (older sweeps live in the archive manifests)", id))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (d *Dispatcher) handleSweepSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	sw := d.findSweepLocked(id)
	d.mu.Unlock()
	if sw == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no span tree for unknown sweep %q", id))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		// Flat records, one per line — the CI artifact format. The recorder
		// is set once at Submit and has its own lock.
		w.Header().Set("Content-Type", "application/x-ndjson")
		sw.spans.WriteJSONL(w)
		return
	}
	tree, _ := d.SweepSpans(id)
	WriteJSON(w, http.StatusOK, tree)
}

func (d *Dispatcher) handleWorkers(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, d.WorkerStatuses())
}

func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.Default().WritePrometheus(w)
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.WorkerID == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	WriteJSON(w, http.StatusOK, LeaseResponse{Lease: d.Lease(req.WorkerID, req.MaxCells)})
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ok, canceled := d.Heartbeat(req.LeaseID)
	d.FoldTelemetry(req.WorkerID, req.Counters, req.Gauges)
	WriteJSON(w, http.StatusOK, HeartbeatResponse{OK: ok, Canceled: canceled})
}

func (d *Dispatcher) handleResults(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	accepted, ok := d.PostResults(req)
	WriteJSON(w, http.StatusOK, ResultsResponse{Accepted: accepted, OK: ok})
}
