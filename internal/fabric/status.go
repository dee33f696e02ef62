package fabric

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// status.go is the dispatcher's read-only observability surface: sweep
// progress (GET /v1/sweeps, /v1/sweeps/{id}), the merged fleet span tree
// (/v1/sweeps/{id}/spans), and the worker roster (/fabric/v1/workers). All of
// it is computed on demand under the dispatcher mutex from state the control
// plane already maintains — the endpoints add no bookkeeping to the lease
// hot path beyond integer tallies.

// SweepStatus is one sweep's progress row.
type SweepStatus struct {
	// SweepID names the sweep (and its archive manifest).
	SweepID string `json:"sweep_id"`
	// RequestID is the submitting client's X-Request-Id, when it sent one.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the fleet-wide trace identity every span of the sweep
	// carries (empty when span tracking is disabled).
	TraceID string `json:"trace_id,omitempty"`
	// State is "active", "done", or "canceled".
	State string `json:"state"`
	// Total is the cell count; the per-state tallies below sum to it.
	Total int `json:"total"`
	// Pending cells are queued, Leased cells are booked to workers; both are
	// zero once the sweep closes.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Completed/Failed/Canceled are finished-cell tallies; CacheHits
	// counts archive and worker-cache replays among them.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	CacheHits int `json:"cache_hits"`
	// Requeues counts cells re-queued by lease expiries (worker deaths).
	Requeues int `json:"requeues"`
	// ElapsedMS is submit→now for active sweeps, submit→close for finished.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall-clock from the completion rate so
	// far; 0 when unknown (no cells finished yet, or the sweep is done).
	ETAMS float64 `json:"eta_ms,omitempty"`
	// Workers is the per-worker throughput attribution, by cells posted.
	Workers []SweepWorkerStatus `json:"workers,omitempty"`
}

// SweepWorkerStatus is one worker's contribution to one sweep.
type SweepWorkerStatus struct {
	// ID is the worker identity.
	ID string `json:"id"`
	// Done is how many of the sweep's cells this worker posted.
	Done int `json:"done"`
	// CellsPerSec is Done over the worker's first→last post interval (0 when
	// everything landed in one post — no interval to rate over).
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
}

// SweepList is the GET /v1/sweeps body.
type SweepList struct {
	// Active sweeps are still streaming records.
	Active []SweepStatus `json:"active"`
	// Recent sweeps finished but remain queryable in memory (newest first).
	Recent []SweepStatus `json:"recent"`
	// Archived is the archive's manifest view (newest first), covering
	// sweeps from before this dispatcher process too. Empty without -archive.
	Archived []Manifest `json:"archived,omitempty"`
}

// SweepSpans is the GET /v1/sweeps/{id}/spans body: the merged fleet span
// tree of one sweep.
type SweepSpans struct {
	SweepID string `json:"sweep_id"`
	TraceID string `json:"trace_id,omitempty"`
	// Total counts spans ever started in (or grafted into) the merged
	// recorder; Dropped counts merge-side capacity drops plus the spans the
	// workers' per-cell recorders dropped before export.
	Total   int64 `json:"total"`
	Dropped int64 `json:"dropped"`
	// Spans is the tree, dispatcher sweep span at the root.
	Spans []*obs.SpanNode `json:"spans"`
}

// WorkerStatus is one row of GET /fabric/v1/workers. A worker is listed
// while it holds a lease or has called within the lease TTL.
type WorkerStatus struct {
	// ID is the worker identity.
	ID string `json:"id"`
	// ActiveLeases is how many leases the worker currently holds.
	ActiveLeases int `json:"active_leases"`
	// CellsDone counts results the worker posted over its lifetime.
	CellsDone int64 `json:"cells_done"`
	// CellsPerSec is CellsDone over the time since the worker joined.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// LastSeenAgeMS is how long ago the worker last called in.
	LastSeenAgeMS int64 `json:"last_seen_age_ms"`
}

// WorkerList is the GET /fabric/v1/workers body.
type WorkerList struct {
	Workers []WorkerStatus `json:"workers"`
}

// findSweepLocked resolves a sweep ID against the active registry, then the
// recent ring. Callers hold d.mu.
func (d *Dispatcher) findSweepLocked(id string) *sweepState {
	if sw, ok := d.sweeps[id]; ok {
		return sw
	}
	for i := len(d.recent) - 1; i >= 0; i-- {
		if d.recent[i].id == id {
			return d.recent[i]
		}
	}
	return nil
}

// sweepStatusLocked builds one sweep's status row. Callers hold d.mu.
func (d *Dispatcher) sweepStatusLocked(sw *sweepState, now time.Time) SweepStatus {
	st := SweepStatus{
		SweepID:   sw.id,
		RequestID: sw.requestID,
		TraceID:   sw.traceID,
		State:     "active",
		Total:     sw.total,
		Completed: sw.summary.Completed,
		Failed:    sw.summary.Failed,
		Canceled:  sw.summary.Canceled,
		CacheHits: sw.summary.CacheHits,
		Requeues:  sw.requeues,
	}
	end := now
	if sw.closed {
		end = sw.finished
		st.State = "done"
		if sw.canceled {
			st.State = "canceled"
		}
	} else {
		for _, t := range d.queue {
			if t.sweep == sw {
				st.Pending++
			}
		}
		for _, l := range d.leases {
			if l.sweep == sw {
				st.Leased += len(l.cells)
			}
		}
	}
	st.ElapsedMS = float64(end.Sub(sw.began).Nanoseconds()) / 1e6
	finishedCells := sw.total - sw.outstanding
	if !sw.closed && finishedCells > 0 && st.ElapsedMS > 0 {
		rate := float64(finishedCells) / st.ElapsedMS // cells per ms
		st.ETAMS = float64(sw.total-finishedCells) / rate
	}
	for id, ws := range sw.perWorker {
		row := SweepWorkerStatus{ID: id, Done: ws.done}
		if span := ws.last.Sub(ws.first); span > 0 {
			row.CellsPerSec = float64(ws.done) / span.Seconds()
		}
		st.Workers = append(st.Workers, row)
	}
	// By descending contribution, ties by ID, so the output is diff-stable.
	slices.SortFunc(st.Workers, func(a, b SweepWorkerStatus) int {
		if c := cmp.Compare(b.Done, a.Done); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return st
}

// SweepStatuses returns the status rows of every active sweep and every
// retained finished sweep (newest first), plus up to archiveLimit archive
// manifests.
func (d *Dispatcher) SweepStatuses(archiveLimit int) SweepList {
	d.mu.Lock()
	now := d.clock.Now()
	list := SweepList{Active: []SweepStatus{}, Recent: []SweepStatus{}}
	for _, sw := range d.sweeps {
		list.Active = append(list.Active, d.sweepStatusLocked(sw, now))
	}
	for i := len(d.recent) - 1; i >= 0; i-- {
		list.Recent = append(list.Recent, d.sweepStatusLocked(d.recent[i], now))
	}
	archive := d.cfg.Archive
	d.mu.Unlock()

	// Active sweeps are in registry (map) order; sort by ID for stability.
	slices.SortFunc(list.Active, func(a, b SweepStatus) int { return strings.Compare(a.SweepID, b.SweepID) })
	if archive != nil && archiveLimit > 0 {
		list.Archived = archive.RecentManifests(archiveLimit)
	}
	return list
}

// SweepStatus returns one sweep's status row; ok is false when the ID is
// neither active nor retained.
func (d *Dispatcher) SweepStatus(id string) (SweepStatus, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sw := d.findSweepLocked(id)
	if sw == nil {
		return SweepStatus{}, false
	}
	return d.sweepStatusLocked(sw, d.clock.Now()), true
}

// SweepSpans returns one sweep's merged fleet span tree; ok is false when
// the sweep is unknown.
func (d *Dispatcher) SweepSpans(id string) (SweepSpans, bool) {
	d.mu.Lock()
	sw := d.findSweepLocked(id)
	if sw == nil {
		d.mu.Unlock()
		return SweepSpans{}, false
	}
	spans, traceID, exportDropped := sw.spans, sw.traceID, sw.spanExportDropped
	d.mu.Unlock()
	// The recorder has its own lock; reading it outside d.mu keeps span
	// assembly off the lease path.
	return SweepSpans{
		SweepID: id,
		TraceID: traceID,
		Total:   spans.Total(),
		Dropped: spans.Dropped() + exportDropped,
		Spans:   spans.Tree(),
	}, true
}

// WorkerStatuses returns the roster's rows, sorted by ID.
func (d *Dispatcher) WorkerStatuses() WorkerList {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	list := WorkerList{Workers: []WorkerStatus{}}
	leases := map[string]int{}
	for _, l := range d.leases {
		leases[l.workerID]++
	}
	for _, w := range d.workers {
		row := WorkerStatus{
			ID:            w.id,
			ActiveLeases:  leases[w.id],
			CellsDone:     w.cellsDone,
			LastSeenAgeMS: now.Sub(w.lastSeen).Milliseconds(),
		}
		if lifetime := now.Sub(w.joined); lifetime > 0 && w.cellsDone > 0 {
			row.CellsPerSec = float64(w.cellsDone) / lifetime.Seconds()
		}
		list.Workers = append(list.Workers, row)
	}
	slices.SortFunc(list.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.ID, b.ID) })
	return list
}
