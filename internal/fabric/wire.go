package fabric

import (
	hotpotato "repro"
	"repro/internal/obs"
)

// Wire types of the worker-facing surface (/fabric/v1/*). All bodies are
// JSON; every response reuses the v1 error envelope on failure. The
// client-facing POST /v1/batch speaks the hotpotato.Sweep* record types
// unchanged — these types exist only between dispatcher and workers.

// LeaseRequest asks for a batch of cells to execute.
type LeaseRequest struct {
	// WorkerID is the worker's self-chosen identity; leasing puts it on the
	// dispatcher's roster.
	WorkerID string `json:"worker_id"`
	// MaxCells bounds the grant; 0 means the dispatcher's per-lease default.
	MaxCells int `json:"max_cells,omitempty"`
}

// LeaseResponse carries the granted lease; a nil Lease means no work is
// pending and the worker should poll again after its idle interval.
type LeaseResponse struct {
	// Lease is the booked batch of cells, nil when the queue is empty.
	Lease *LeaseGrant `json:"lease,omitempty"`
}

// LeaseGrant is one booked batch of cells: all from one sweep, leased to one
// worker, with a deadline the worker keeps alive by heartbeating.
type LeaseGrant struct {
	// ID names the lease on heartbeat and result calls.
	ID string `json:"id"`
	// SweepID is the sweep the cells belong to.
	SweepID string `json:"sweep_id"`
	// Cells are the booked cells, each a complete RunSpec plus its index in
	// the sweep's expansion order.
	Cells []hotpotato.SweepCell `json:"cells"`
	// TTLMS is the lease TTL; the worker heartbeats at a third of it.
	TTLMS int64 `json:"ttl_ms"`
	// TraceParent is the sweep's trace context in W3C traceparent form
	// (obs.ParseTraceParent): the trace ID every span of the sweep shares,
	// with the dispatcher's lease span as the parent. Workers stamp it on
	// their per-cell span roots so the exported records merge into one
	// fleet-wide tree; a worker runs a grant without a valid one untraced.
	TraceParent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	// WorkerID is the heartbeating worker.
	WorkerID string `json:"worker_id"`
	// LeaseID is the lease to extend.
	LeaseID string `json:"lease_id"`
	// Done reports how many of the lease's cells have finished — progress
	// telemetry for the dispatcher's logs, not a correctness input.
	Done int `json:"done,omitempty"`
	// Counters carries the worker's metric counter DELTAS since its previous
	// heartbeat (zero deltas omitted). The dispatcher folds them into its
	// fleet_* aggregates; deltas (not absolutes) make the fold restart-safe —
	// a rebooted worker resumes from zero without double counting.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges carries the worker's gauge values, absolute (gauges do not
	// accumulate; the dispatcher sums the latest value per worker).
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// HeartbeatResponse acknowledges (or rejects) a heartbeat.
type HeartbeatResponse struct {
	// OK reports the lease is still valid and its deadline was extended.
	// false means the dispatcher no longer knows the lease (it expired and
	// was re-queued, or its sweep is gone) — the worker must abandon the
	// lease's remaining cells and stop posting results for it.
	OK bool `json:"ok"`
	// Canceled reports the lease's sweep was canceled (its client
	// disconnected); the worker should stop executing the lease's cells.
	Canceled bool `json:"canceled,omitempty"`
}

// ResultsRequest streams finished cells back. Workers post records one at a
// time as cells finish (the dispatcher forwards them straight onto the
// client stream), but the wire accepts a batch so a worker can flush several
// at once after a transient dispatcher outage.
type ResultsRequest struct {
	// WorkerID is the reporting worker.
	WorkerID string `json:"worker_id"`
	// LeaseID is the lease the cells belong to.
	LeaseID string `json:"lease_id"`
	// Records are the finished cells in hotpotato wire form — exactly what a
	// single-node /v1/batch would have streamed for them.
	Records []hotpotato.SweepResultRecord `json:"records"`
	// Spans exports each finished cell's worker-side span records so the
	// dispatcher can graft them into the sweep's merged trace tree.
	Spans []CellSpans `json:"spans,omitempty"`
}

// CellSpans is the exported span subtree of one finished cell, in the
// recorder's export form (obs.SpanRecorder.Export): the epoch spans travel by
// column in Epochs, every other span as a record in Spans. Span IDs are local
// to the worker's per-cell recorder; the dispatcher re-numbers them on merge
// (obs.SpanRecorder.Graft), so only intra-batch parent links matter.
// A post from an older worker carries its epoch spans as records in Spans,
// and they graft as records.
type CellSpans struct {
	// Index is the cell's index in the sweep's expansion order.
	Index int `json:"index"`
	// Worker is the executing worker's identity, for attribution in the
	// merged tree.
	Worker string `json:"worker,omitempty"`
	// Spans are the cell's span records, roots first (the worker's "cell"
	// root span carries the trace_id / worker attribution attrs).
	Spans []obs.SpanRecord `json:"spans,omitempty"`
	// Epochs are the cell's epoch spans, one obs.EpochRun per run of
	// consecutive epochs under one parent, each placed before Spans[At].
	Epochs []obs.EpochRun `json:"epochs,omitempty"`
	// Dropped is how many spans the worker's per-cell recorder dropped beyond
	// its capacity (long simulations emit one span per scheduler epoch).
	Dropped int64 `json:"dropped,omitempty"`
}

// ResultsResponse acknowledges a results post.
type ResultsResponse struct {
	// Accepted is how many records the dispatcher consumed: only records
	// for cells the lease still holds, each carrying its booked cell's hash.
	// Records for already-finished cells (a re-leased cell completing twice)
	// are not counted — first result wins, duplicates are dropped silently.
	Accepted int `json:"accepted"`
	// OK mirrors HeartbeatResponse.OK: false means the lease is unknown and
	// the worker should abandon its remaining cells.
	OK bool `json:"ok"`
}
