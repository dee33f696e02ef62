package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// handleBatch streams a sweep. Admission, SSE negotiation, the stream loop
// and the error envelope are the fabric's (fabric.AdmitSweep,
// fabric.StreamSweep): the dispatcher's /v1/batch speaks the identical wire
// contract through the same code. What is the server's own is the record
// source — every cell runs over the shared worker semaphore through the
// result cache, so repeated cells (and re-posted sweeps) replay instead of
// re-simulating. A client disconnect cancels the request context, which
// stops in-flight cells within one scheduler epoch and fails the rest
// immediately.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		fabric.WriteError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	cells, status, err := fabric.AdmitSweep(r.Body, s.cfg.MaxSweepCells)
	if err != nil {
		if status == http.StatusRequestEntityTooLarge {
			metricBatchRejected.Inc()
		} else {
			metricBadRequests.Inc()
		}
		fabric.WriteError(w, status, err)
		return
	}

	// The sweep dies with the request (client disconnect) or the server
	// (shutdown force-cancel), whichever comes first — same rule as /v1/run.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	s.runs.Add(1)
	defer s.runs.Done()

	metricBatchRequests.Inc()
	logger := obs.LoggerFrom(r.Context())
	logger.Info("batch started", "cells", len(cells), "sse", fabric.WantsSSE(r))

	// Buffered to one slot per cell, so the pool never blocks on the stream;
	// closing it after ExecuteSweepCells returns ends the stream loop.
	records := make(chan hotpotato.SweepResultRecord, len(cells))
	var sweepErr error
	go func() {
		defer close(records)
		sweepErr = hotpotato.ExecuteSweepCells(ctx, cells, hotpotato.SweepOptions{
			Workers: s.cfg.Workers,
			Run:     s.ExecuteCell,
		}, func(cellRes hotpotato.SweepCellResult) {
			records <- hotpotato.NewSweepResultRecord(cellRes)
		})
	}()

	stream := fabric.NewRecordStream(w, fabric.WantsSSE(r), func(typ, reason string) {
		metricBatchDroppedRecords.Inc()
		logger.Warn("batch dropped stream record", "record", typ, "reason", reason)
	})
	summary := fabric.StreamSweep(stream, hotpotato.SweepStarted{
		Type: "sweep", Total: len(cells), RequestID: requestIDFrom(r.Context()),
	}, records, s.cfg.BatchHeartbeat)
	logger.Info("batch finished",
		"cells", summary.Total, "completed", summary.Completed,
		"failed", summary.Failed, "canceled", summary.Canceled,
		"cache_hits", summary.CacheHits,
		"dropped_records", stream.Dropped(),
		"duration_ms", summary.ElapsedMS,
		"error", errString(sweepErr),
	)
}

// ExecuteCell runs one sweep cell through the server's serving stack: spec
// hash as the cache key, the shared result cache (singleflight included),
// the worker semaphore, and a span per cell. It is the Run callback of the
// local /v1/batch pool and, unchanged, the executor a fabric worker plugs
// into its pull loop — the same function body is what makes a distributed
// sweep's records bit-identical to a single-node run's. ExecuteCell expects
// the canonical spec ExecuteSweepCells hands its runner; the reported bool
// is a cache hit.
func (s *Server) ExecuteCell(ctx context.Context, cell hotpotato.SweepCell) (*hotpotato.Result, bool, error) {
	hash, err := hotpotato.SpecHash(cell.Spec)
	if err != nil {
		return nil, false, err
	}
	span := obs.SpanFromContext(ctx).StartChild("sweep_cell")
	span.SetAttr("index", fmt.Sprint(cell.Index))
	span.SetAttr("hash", hash)
	res, _, cached, err := s.cachedExecute(ctx, cell.Spec, hash)
	span.SetError(err)
	span.End()
	metricBatchCells.Inc()
	return res, cached, err
}
