package fabric

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	hotpotato "repro"
	"repro/internal/obs"
)

// Clock abstracts time for the lease machinery so expiry is unit-testable
// with a fake clock; production uses the real one.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Defaults of the dispatcher configuration.
const (
	// DefaultLeaseTTL is how long a lease stays booked without a heartbeat
	// before its cells are re-queued.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultMaxRetries is how many times a cell is re-leased after lease
	// expiries before it is reported "failed". The first lease is not a
	// retry: a cell is abandoned after 1+DefaultMaxRetries bookings.
	DefaultMaxRetries = 3
	// DefaultLeaseCells caps how many cells one lease books. Small batches
	// keep re-queue cost low when a worker dies and spread a sweep evenly.
	DefaultLeaseCells = 4
	// DefaultRecentSweeps is how many finished sweeps the dispatcher retains
	// for the status surface (GET /v1/sweeps, /v1/sweeps/{id}/spans) after
	// their record streams close. Older sweeps remain visible through the
	// archive manifests only.
	DefaultRecentSweeps = 32
)

// Config sizes a Dispatcher.
type Config struct {
	// LeaseTTL is the lease deadline extension per heartbeat (0 =
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxRetries bounds re-leases per cell after expiries (0 =
	// DefaultMaxRetries; negative means no retries — one expiry fails the
	// cell).
	MaxRetries int
	// LeaseCells caps cells per lease (0 = DefaultLeaseCells).
	LeaseCells int
	// MaxSweepCells is the POST /v1/batch admission limit (0 = the
	// structural hotpotato.MaxSweepCells; servers typically set much less).
	MaxSweepCells int
	// Heartbeat is the client-stream progress cadence (≤ 0 = 10s) — the same
	// knob as the single-node server's -batch-heartbeat.
	Heartbeat time.Duration
	// Archive persists completed cells by SpecHash; nil disables archiving
	// (and the archive-hit fast path).
	Archive *Archive
	// SweepSpanDepth caps the merged span tree retained per sweep — the
	// dispatcher's own sweep/lease spans plus every worker-exported cell
	// subtree (≤ 0 = obs.DefaultSpanDepth).
	SweepSpanDepth int
	// RecentSweeps caps how many finished sweeps stay queryable on the status
	// surface (0 = DefaultRecentSweeps).
	RecentSweeps int
	// Clock drives lease deadlines; nil means the real clock.
	Clock Clock
	// Logger receives the dispatcher's structured log stream; nil is quiet.
	Logger *slog.Logger
}

// cell lifecycle states. cellDone covers every final status — the record's
// Status says which.
const (
	cellPending = iota
	cellLeased
	cellDone
)

// cellTask is one cell's control-plane state.
type cellTask struct {
	sweep *sweepState
	cell  hotpotato.SweepCell
	hash  string
	// bookings counts leases granted for this cell; a cell whose lease
	// expires with bookings > MaxRetries is failed instead of re-queued.
	bookings int
	state    int
}

// sweepState is one submitted sweep: its cells, the record channel its
// client handler drains, and the tallies the summary and manifest report.
type sweepState struct {
	id        string
	requestID string
	total     int
	// outstanding counts cells not yet done/failed/canceled; the records
	// channel closes when it reaches zero.
	outstanding int
	// records is buffered to total, so emits never block — even when the
	// client handler has gone away.
	records  chan hotpotato.SweepResultRecord
	closed   bool
	canceled bool
	began    time.Time
	finished time.Time // zero while the sweep is active

	// summary holds the finished-cell tallies, counted only through
	// SweepSummary.Observe; Counts, the status surface and the manifest all
	// read it.
	summary hotpotato.SweepSummary
	// requeues counts cells re-queued by lease expiries — the recovery work
	// the status surface reports per sweep.
	requeues int

	// traceID / spans / root are the sweep's merged fleet trace: the
	// dispatcher's own sweep and lease spans plus every worker-exported cell
	// subtree, grafted under root. traceID is the client's, or "" when the
	// client sent no traceparent; workers export cell subtrees only then.
	traceID string
	spans   *obs.SpanRecorder
	root    *obs.Span
	// spanExportDropped sums the spans the workers' per-cell recorders
	// dropped before export (on top of spans.Dropped(), the merge-side drop).
	spanExportDropped int64

	// perWorker attributes completed cells to the workers that posted them.
	perWorker map[string]*sweepWorkerStats
}

// sweepWorkerStats is one worker's contribution to one sweep.
type sweepWorkerStats struct {
	done  int
	first time.Time // first result post, for the cells/s denominator
	last  time.Time
}

// lease is one booked batch of cells (all from one sweep).
type lease struct {
	id       string
	workerID string
	sweep    *sweepState
	// cells indexes the lease's tasks by their sweep cell index.
	cells    map[int]*cellTask
	deadline time.Time
	// span times the lease in the sweep's merged trace; worker-exported cell
	// subtrees graft under it.
	span *obs.Span
}

// workerState is everything the dispatcher knows about one worker — the
// GET /fabric/v1/workers row. Leasing puts a worker on the roster; the
// reaper takes it off once it holds no lease and has been silent for a
// lease TTL.
type workerState struct {
	id     string
	joined time.Time
	// lastSeen is the last lease, heartbeat or results call.
	lastSeen time.Time
	// cellsDone counts results this worker posted (accepted records).
	cellsDone int64
	// gauges holds the worker's latest federated gauge values; fleet gauges
	// are the sum across workers.
	gauges map[string]float64
}

// Dispatcher is the control plane: it owns the pending-cell queue, the
// active leases and their deadlines, and the per-sweep record fan-in. All
// state transitions happen under one mutex — the dispatcher's work per
// operation is tiny (the simulations happen on workers), so a single lock
// is simpler and plenty fast.
type Dispatcher struct {
	cfg    Config
	clock  Clock
	logger *slog.Logger

	mu     sync.Mutex
	sweeps map[string]*sweepState
	// recent retains finished sweeps (newest last) for the status surface,
	// bounded by cfg.RecentSweeps.
	recent  []*sweepState
	queue   []*cellTask // FIFO; expiry re-queues at the front
	leases  map[string]*lease
	workers map[string]*workerState
	// ids mints sweep and lease IDs.
	ids IDs
}

// NewDispatcher builds a dispatcher. Call Run to start the lease reaper (or
// drive ExpireLeases manually, as the unit tests do).
func NewDispatcher(cfg Config) *Dispatcher {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.LeaseCells <= 0 {
		cfg.LeaseCells = DefaultLeaseCells
	}
	if cfg.MaxSweepCells <= 0 || cfg.MaxSweepCells > hotpotato.MaxSweepCells {
		cfg.MaxSweepCells = hotpotato.MaxSweepCells
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	if cfg.RecentSweeps <= 0 {
		cfg.RecentSweeps = DefaultRecentSweeps
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	return &Dispatcher{
		cfg:     cfg,
		clock:   cfg.Clock,
		logger:  cfg.Logger,
		sweeps:  map[string]*sweepState{},
		leases:  map[string]*lease{},
		workers: map[string]*workerState{},
		ids:     NewIDs(cfg.Clock.Now()),
	}
}

// IDs mints the serving stack's record IDs: sweep and lease IDs here, job
// IDs in hotpotato-server, all <kind>-<start time, UTC,
// 20060102T150405.000000000Z>-<10-digit sequence>. The process's start time
// makes IDs unique across restarts, so a stale client's ID never names a
// record of the restarted process; the fixed widths make the IDs'
// lexicographic order (the archive's manifest listing, GET /v1/jobs) their
// creation order. An IDs is not safe for concurrent use: callers hold their
// own lock.
type IDs struct {
	prefix string
	seq    int64
}

// NewIDs starts an ID sequence stamped with the process start time.
func NewIDs(start time.Time) IDs {
	return IDs{prefix: start.UTC().Format("20060102T150405.000000000Z")}
}

// Next mints the next ID of kind ("sweep", "lease", "job").
func (g *IDs) Next(kind string) string {
	g.seq++
	return fmt.Sprintf("%s-%s-%010d", kind, g.prefix, g.seq)
}

// Run drives the lease reaper until ctx is done: every quarter TTL it
// re-queues the booked cells of expired leases. When it returns, every
// worker still on the roster is dropped with its gauges, so a stopped
// dispatcher leaves no workers in the process-wide fabric_workers and fleet
// gauges. Tests skip Run and call ExpireLeases with a fake clock instead.
func (d *Dispatcher) Run(ctx context.Context) {
	interval := d.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			d.mu.Lock()
			for _, w := range d.workers {
				d.dropWorkerLocked(w)
			}
			d.mu.Unlock()
			return
		case <-tick.C:
			d.ExpireLeases(d.clock.Now())
		}
	}
}

// Sweep is the client handle of one submitted sweep: the handler drains
// Records until it closes, then reads the final tallies.
type Sweep struct {
	// ID names the sweep (and its archive manifest).
	ID string
	// Total is the cell count.
	Total int

	d  *Dispatcher
	st *sweepState
}

// Records returns the stream of finished-cell records in completion order.
// The channel closes once every cell is accounted for (done, failed, or the
// sweep was canceled).
func (s *Sweep) Records() <-chan hotpotato.SweepResultRecord { return s.st.records }

// Cancel aborts the sweep: pending cells are dropped, leased cells' late
// results are discarded, and workers learn on their next heartbeat. Safe to
// call more than once; the handler calls it when its client disconnects.
func (s *Sweep) Cancel() { s.d.cancelSweep(s.st) }

// Submit registers a sweep's expanded cells with the control plane. Cells
// whose spec fails to hash are failed immediately; cells whose hash is in
// the archive replay immediately (Cached: true); the rest are queued for
// workers. requestID is echoed into the archive manifest. traceParent is the
// client's optional traceparent header value: a valid one makes the sweep
// join the client's trace, and its leases carry the trace to the workers;
// anything else leaves the sweep untraced (no trace ID, no worker spans).
func (d *Dispatcher) Submit(cells []hotpotato.SweepCell, requestID, traceParent string) *Sweep {
	// A rejected traceParent parses to the zero context: no trace ID.
	tc, traced := obs.ParseTraceParent(traceParent)
	d.mu.Lock()
	defer d.mu.Unlock()
	sw := &sweepState{
		id:          d.ids.Next("sweep"),
		requestID:   requestID,
		traceID:     tc.TraceID,
		total:       len(cells),
		outstanding: len(cells),
		records:     make(chan hotpotato.SweepResultRecord, len(cells)),
		began:       d.clock.Now(),
		perWorker:   map[string]*sweepWorkerStats{},
	}
	sw.spans = obs.NewSpanRecorder(d.cfg.SweepSpanDepth)
	sw.root = sw.spans.Start("sweep")
	sw.root.SetAttr("sweep_id", sw.id)
	sw.root.SetAttr("cells", len(cells))
	if traced {
		sw.root.SetAttr("trace_id", tc.TraceID)
		sw.root.SetAttr("parent_span_id", tc.SpanID)
	}
	if requestID != "" {
		sw.root.SetAttr("request_id", requestID)
	}
	d.sweeps[sw.id] = sw
	metricSweeps.Inc()
	metricCells.Add(int64(len(cells)))

	for _, cell := range cells {
		hash, err := hotpotato.SpecHash(cell.Spec)
		if err != nil {
			// Mirror ExecuteSweepCells: an invalid cell is reported, not run.
			d.finishCellLocked(&cellTask{sweep: sw, cell: cell}, hotpotato.SweepResultRecord{
				Type: "result", Index: cell.Index, Status: "failed",
				Error: fmt.Sprintf("cell %d: %v", cell.Index, err),
			})
			continue
		}
		if d.cfg.Archive != nil {
			if rec, ok := d.cfg.Archive.Get(hash); ok {
				rec.Index = cell.Index
				rec.Cached = true
				metricArchiveHits.Inc()
				d.finishCellLocked(&cellTask{sweep: sw, cell: cell, hash: hash}, rec)
				continue
			}
		}
		d.queue = append(d.queue, &cellTask{sweep: sw, cell: cell, hash: hash})
	}
	metricQueueDepth.Set(float64(len(d.queue)))
	if sw.outstanding == 0 {
		d.closeSweepLocked(sw)
	}
	return &Sweep{ID: sw.id, Total: len(cells), d: d, st: sw}
}

// seeWorkerLocked records that a listed worker called at now and returns
// it; nil means workerID is not on the roster, which only Lease adds to.
// Every call that extends a lease's deadline to now+TTL passes the same now
// here, so the reaper pass that expires a dead worker's lease also drops
// the worker. Callers hold d.mu.
func (d *Dispatcher) seeWorkerLocked(workerID string, now time.Time) *workerState {
	w := d.workers[workerID]
	if w != nil {
		w.lastSeen = now
	}
	return w
}

// Lease books up to maxCells pending cells (all from one sweep) to workerID.
// nil means no work is pending. Leasing is how a worker joins the roster,
// also after a dispatcher restart: an unknown worker is listed here, idle
// or not.
func (d *Dispatcher) Lease(workerID string, maxCells int) *LeaseGrant {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	if d.seeWorkerLocked(workerID, now) == nil {
		d.workers[workerID] = &workerState{id: workerID, joined: now, lastSeen: now}
		metricWorkers.Add(1)
	}
	if maxCells <= 0 || maxCells > d.cfg.LeaseCells {
		maxCells = d.cfg.LeaseCells
	}
	// Drop canceled sweeps' cells from the head first, so a dead sweep never
	// occupies a worker.
	for len(d.queue) > 0 && d.queue[0].sweep.canceled {
		d.queue = d.queue[1:]
	}
	if len(d.queue) == 0 {
		metricQueueDepth.Set(0)
		return nil
	}
	sw := d.queue[0].sweep
	grant := &LeaseGrant{TTLMS: d.cfg.LeaseTTL.Milliseconds(), SweepID: sw.id}
	tasks := map[int]*cellTask{}
	kept := d.queue[:0]
	for _, t := range d.queue {
		if len(grant.Cells) < maxCells && t.sweep == sw && !t.sweep.canceled {
			t.state = cellLeased
			t.bookings++
			tasks[t.cell.Index] = t
			grant.Cells = append(grant.Cells, t.cell)
			continue
		}
		kept = append(kept, t)
	}
	d.queue = kept
	metricQueueDepth.Set(float64(len(d.queue)))

	grant.ID = d.ids.Next("lease")
	l := &lease{
		id: grant.ID, workerID: workerID, sweep: sw,
		cells: tasks, deadline: now.Add(d.cfg.LeaseTTL),
	}
	l.span = sw.root.StartChild("lease")
	l.span.SetAttr("lease", grant.ID)
	l.span.SetAttr("worker", workerID)
	l.span.SetAttr("cells", len(grant.Cells))
	// Workers parent their per-cell spans under this lease span: same trace,
	// lease span as parent. An untraced sweep's grant carries no traceparent
	// (Header is "" without a trace ID), so its workers record no spans.
	grant.TraceParent = obs.TraceContext{TraceID: sw.traceID}.Child(l.span.ID()).Header()
	d.leases[grant.ID] = l
	metricLeases.Inc()
	d.logger.Info("fabric lease granted",
		"lease", grant.ID, "worker", workerID, "sweep", sw.id, "cells", len(grant.Cells))
	return grant
}

// Heartbeat extends leaseID's deadline. ok=false means the lease is unknown
// (expired or its sweep is gone) and the worker must abandon its cells;
// canceled=true keeps the lease but tells the worker to stop executing.
func (d *Dispatcher) Heartbeat(leaseID string) (ok, canceled bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, found := d.leases[leaseID]
	if !found {
		return false, false
	}
	now := d.clock.Now()
	l.deadline = now.Add(d.cfg.LeaseTTL)
	d.seeWorkerLocked(l.workerID, now)
	return true, l.sweep.canceled
}

// PostResults consumes finished-cell records for req.LeaseID. First result
// wins: a record for an already-finished cell (a re-leased cell completing
// twice) is dropped, and so is a record whose hash is not the booked cell's
// (a stale worker's result must never be archived under another spec's
// hash). accepted counts consumed records; ok=false means the lease is
// unknown and the worker should abandon the rest. Worker span subtrees of
// the wire form's sidecar are grafted into the sweep's merged trace (only
// for cells whose record was accepted — a duplicate result must not
// duplicate its subtree). A negative Dropped count is ignored, so a post
// cannot lower the sweep's reported drops.
func (d *Dispatcher) PostResults(req ResultsRequest) (accepted int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, found := d.leases[req.LeaseID]
	if !found {
		return 0, false
	}
	now := d.clock.Now()
	l.deadline = now.Add(d.cfg.LeaseTTL) // results are heartbeats too
	sw := l.sweep
	w := d.seeWorkerLocked(l.workerID, now) // a lease holder stays listed
	acceptedIdx := map[int]bool{}
	for _, rec := range req.Records {
		t, mine := l.cells[rec.Index]
		if !mine || t.state != cellLeased || rec.Hash != t.hash {
			continue
		}
		accepted++
		acceptedIdx[rec.Index] = true
		delete(l.cells, rec.Index)
		d.finishCellLocked(t, rec)
		if d.cfg.Archive != nil && rec.Status == "ok" && !rec.Cached {
			if err := d.cfg.Archive.Put(t.hash, rec); err != nil {
				d.logger.Warn("fabric archive write failed", "hash", t.hash, "error", err.Error())
			}
		}
	}
	if accepted > 0 {
		w.cellsDone += int64(accepted)
		ws := sw.perWorker[l.workerID]
		if ws == nil {
			ws = &sweepWorkerStats{first: now}
			sw.perWorker[l.workerID] = ws
		}
		ws.done += accepted
		ws.last = now
	}
	for _, cs := range req.Spans {
		if !acceptedIdx[cs.Index] || len(cs.Spans)+len(cs.Epochs) == 0 {
			continue
		}
		// Stamp authoritative worker attribution on the batch roots (the
		// lease, not the request body, says who executed the cell).
		grafted, rejected := sw.spans.Graft(l.span.ID(),
			map[string]any{"worker": l.workerID}, cs.Spans, cs.Epochs)
		metricSpansGrafted.Add(int64(grafted))
		if rejected > 0 {
			d.logger.Warn("fabric dropped malformed epoch runs", "worker", l.workerID,
				"cell", cs.Index, "runs", rejected)
		}
		sw.spanExportDropped += max(cs.Dropped, 0)
	}
	if len(l.cells) == 0 {
		l.span.End()
		delete(d.leases, req.LeaseID)
	}
	return accepted, true
}

// ExpireLeases re-queues the unfinished cells of every lease whose deadline
// is before now, and returns how many leases expired. Cells past their retry
// budget are failed instead of re-queued. In the same pass it drops every
// worker that holds no lease and has not called within the lease TTL, with
// its gauges, from the roster. The reaper calls this on a timer; unit tests
// call it directly with a fake clock.
func (d *Dispatcher) ExpireLeases(now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	expired := 0
	for id, l := range d.leases {
		if !l.deadline.Before(now) {
			continue
		}
		expired++
		metricLeasesExpired.Inc()
		requeued, failed := 0, 0
		for _, t := range l.cells {
			if t.sweep.canceled {
				d.finishCellLocked(t, hotpotato.SweepResultRecord{
					Type: "result", Index: t.cell.Index, Hash: t.hash, Status: "canceled",
					Error: "sweep canceled",
				})
				continue
			}
			if t.bookings > d.cfg.MaxRetries {
				failed++
				d.finishCellLocked(t, hotpotato.SweepResultRecord{
					Type: "result", Index: t.cell.Index, Hash: t.hash, Status: "failed",
					Error: fmt.Sprintf("cell %d: lease expired %d times (worker died or stopped heartbeating)",
						t.cell.Index, t.bookings),
				})
				continue
			}
			t.state = cellPending
			requeued++
			t.sweep.requeues++
			metricCellsRequeued.Inc()
			// Front of the queue: recovered cells are the sweep's critical
			// path, so they go out on the next lease.
			d.queue = append([]*cellTask{t}, d.queue...)
		}
		l.span.SetError(fmt.Errorf("lease expired (worker %s stopped heartbeating); %d cells requeued, %d failed",
			l.workerID, requeued, failed))
		l.span.End()
		delete(d.leases, id)
		d.logger.Warn("fabric lease expired",
			"lease", id, "worker", l.workerID, "requeued", requeued, "failed", failed)
	}
	metricQueueDepth.Set(float64(len(d.queue)))
	// A lease's deadline is its holder's lastSeen plus the TTL at most, so a
	// worker silent for a TTL holds no lease once the loop above has run.
	for id, w := range d.workers {
		if !w.lastSeen.Add(d.cfg.LeaseTTL).Before(now) {
			continue
		}
		d.dropWorkerLocked(w)
		d.logger.Warn("fabric worker dropped",
			"worker", id, "silent_ms", now.Sub(w.lastSeen).Milliseconds(), "cells_done", w.cellsDone)
	}
	return expired
}

// dropWorkerLocked takes w off the roster and its federated gauges out of
// the fleet sums. Callers hold d.mu.
func (d *Dispatcher) dropWorkerLocked(w *workerState) {
	delete(d.workers, w.id)
	metricWorkers.Add(-1)
	d.sumFleetGaugesLocked(w.gauges)
}

// cancelSweep aborts sw (idempotent): pending cells leave the queue as
// canceled, and the records channel closes once nothing remains outstanding.
func (d *Dispatcher) cancelSweep(sw *sweepState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sw.closed || sw.canceled {
		return
	}
	sw.canceled = true
	kept := d.queue[:0]
	for _, t := range d.queue {
		if t.sweep != sw {
			kept = append(kept, t)
			continue
		}
		d.finishCellLocked(t, hotpotato.SweepResultRecord{
			Type: "result", Index: t.cell.Index, Hash: t.hash, Status: "canceled",
			Error: "sweep canceled",
		})
	}
	d.queue = kept
	metricQueueDepth.Set(float64(len(d.queue)))
	// Leased cells are finished as canceled immediately — the client is gone,
	// so there is no reason to hold its handler until a lease resolves. The
	// leases themselves are dropped; their workers learn from the next
	// heartbeat's OK=false and abandon the cells (finishCellLocked's state
	// guard discards any result that still arrives).
	for id, l := range d.leases {
		if l.sweep != sw {
			continue
		}
		for _, t := range l.cells {
			d.finishCellLocked(t, hotpotato.SweepResultRecord{
				Type: "result", Index: t.cell.Index, Hash: t.hash, Status: "canceled",
				Error: "sweep canceled",
			})
		}
		l.span.End()
		delete(d.leases, id)
	}
	d.logger.Info("fabric sweep canceled", "sweep", sw.id)
}

// finishCellLocked records one cell outcome: tallies, stream emit, and sweep
// close when it was the last. A cell finishes exactly once — later calls
// (a late result for a canceled sweep's cell) are dropped. Callers hold d.mu.
func (d *Dispatcher) finishCellLocked(t *cellTask, rec hotpotato.SweepResultRecord) {
	if t.state == cellDone {
		return
	}
	t.state = cellDone
	sw := t.sweep
	before := sw.summary
	sw.summary.Observe(rec)
	metricCellsCompleted.Add(int64(sw.summary.Completed - before.Completed))
	metricCellsFailed.Add(int64(sw.summary.Failed - before.Failed))
	sw.outstanding--
	if !sw.closed && !sw.canceled {
		// Buffered to total and each cell finishes exactly once, so this
		// never blocks.
		sw.records <- rec
	}
	if sw.outstanding == 0 {
		d.closeSweepLocked(sw)
	}
}

// closeSweepLocked seals a finished sweep: closes its record stream, writes
// the archive manifest, and moves the sweep from the active registry to the
// bounded recent ring (the status surface keeps answering for it; memory
// stays bounded because the ring evicts). Callers hold d.mu.
func (d *Dispatcher) closeSweepLocked(sw *sweepState) {
	if sw.closed {
		return
	}
	sw.closed = true
	sw.finished = d.clock.Now()
	close(sw.records)
	if sw.canceled {
		sw.root.SetError(fmt.Errorf("sweep canceled"))
	}
	sw.root.End()
	delete(d.sweeps, sw.id)
	d.recent = append(d.recent, sw)
	if len(d.recent) > d.cfg.RecentSweeps {
		d.recent = append(d.recent[:0], d.recent[len(d.recent)-d.cfg.RecentSweeps:]...)
	}
	if d.cfg.Archive != nil && !sw.canceled {
		sum := sw.summary
		m := Manifest{
			SweepID: sw.id, RequestID: sw.requestID, TraceID: sw.traceID,
			Total: sw.total, Completed: sum.Completed, Failed: sum.Failed,
			Canceled:  sum.Canceled,
			CacheHits: sum.CacheHits,
			Requeues:  sw.requeues,
			ElapsedMS: float64(sw.finished.Sub(sw.began).Nanoseconds()) / 1e6,
		}
		if err := d.cfg.Archive.WriteManifest(sw.id, m); err != nil {
			d.logger.Warn("fabric manifest write failed", "sweep", sw.id, "error", err.Error())
		}
	}
	d.logger.Info("fabric sweep finished",
		"sweep", sw.id, "completed", sw.summary.Completed, "failed", sw.summary.Failed,
		"canceled", sw.summary.Canceled, "cache_hits", sw.summary.CacheHits)
}

// Stats is the dispatcher's health snapshot.
type Stats struct {
	// Workers is how many workers are on the roster (GET /fabric/v1/workers).
	Workers int `json:"workers"`
	// QueuedCells is the pending-cell queue depth.
	QueuedCells int `json:"queued_cells"`
	// ActiveLeases is how many leases are currently booked.
	ActiveLeases int `json:"active_leases"`
	// ActiveSweeps is how many sweeps are still streaming.
	ActiveSweeps int `json:"active_sweeps"`
}

// Snapshot returns the current Stats (the /healthz body).
func (d *Dispatcher) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Workers:      len(d.workers),
		QueuedCells:  len(d.queue),
		ActiveLeases: len(d.leases),
		// Closed sweeps leave the registry, so everything in it is active.
		ActiveSweeps: len(d.sweeps),
	}
}
