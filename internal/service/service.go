// Package service is the HTTP/JSON serving layer of the reproduction: it
// turns declarative hotpotato.RunSpec documents into simulation runs on a
// long-lived bounded worker pool, shares eigendecomposed Platforms between
// requests through one hotpotato.PlatformCache, and honours request
// deadlines and disconnects mid-run through hotpotato.RunContext.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// Config sizes the server.
type Config struct {
	// Workers bounds the number of simulations executing at once, sync and
	// async alike — the serving-side twin of ExperimentOptions.Workers.
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is how many async jobs may wait for a worker slot: POST
	// /v1/jobs answers 429 Too Many Requests once Workers + QueueDepth jobs
	// are unfinished (queued or running). 0 means 64.
	QueueDepth int
	// JobRetention is how long finished jobs (done, failed, canceled) stay
	// queryable via GET /v1/jobs/{id} before the job store evicts them —
	// without eviction a long-running server grows its job store without
	// bound. ≤ 0 means DefaultJobRetention.
	JobRetention time.Duration
	// TraceDepth is how many scheduler epochs each async job's ring tracer
	// retains for GET /v1/jobs/{id}/trace. ≤ 0 means obs.DefaultTraceDepth.
	TraceDepth int
	// SpanDepth is how many spans each async job's recorder retains for
	// GET /v1/jobs/{id}/spans (one span per service phase plus one per
	// scheduler epoch). ≤ 0 means obs.DefaultSpanDepth.
	SpanDepth int
	// DefaultSolver is applied to specs whose platform.thermal.solver is
	// empty: "auto", "dense" or "sparse" (thermal.Solver* constants). ""
	// leaves specs untouched, which means auto selection. The solver is
	// part of the platform cache key, so two specs differing only in
	// solver get distinct platforms.
	DefaultSolver string
	// ResultCacheEntries bounds the content-addressed result cache (LRU over
	// SpecHash keys) shared by POST /v1/run and /v1/batch cells. ≤ 0 means
	// DefaultResultCacheEntries.
	ResultCacheEntries int
	// MaxSweepCells is the admission limit of POST /v1/batch: sweeps whose
	// cross-product exceeds it are answered 413 before any cell runs. 0
	// means DefaultMaxSweepCells; values above hotpotato.MaxSweepCells are
	// clamped to it.
	MaxSweepCells int
	// BatchHeartbeat is how often an idle /v1/batch stream emits a progress
	// record so proxies keep the connection alive during long cells. ≤ 0
	// means DefaultBatchHeartbeat.
	BatchHeartbeat time.Duration
	// Logger receives the server's structured log stream (access lines, job
	// lifecycle, shutdown). nil means a no-op logger — tests and embedders
	// that do not care stay quiet.
	Logger *slog.Logger
	// TwinModel is the loaded analytical-twin calibration artifact backing
	// POST /v1/predict (the -twin-model flag loads it via
	// hotpotato.LoadTwinModelFile). nil makes /v1/predict answer 503.
	TwinModel *hotpotato.TwinModel
}

// DefaultJobRetention is how long terminal jobs stay queryable when
// Config.JobRetention is not positive.
const DefaultJobRetention = 10 * time.Minute

// DefaultMaxSweepCells is the /v1/batch admission limit when
// Config.MaxSweepCells is zero — deliberately far below the structural
// hotpotato.MaxSweepCells bound, because every admitted cell is a simulation
// this server has promised to run.
const DefaultMaxSweepCells = 1024

// DefaultBatchHeartbeat is the idle-stream progress cadence when
// Config.BatchHeartbeat is not positive.
const DefaultBatchHeartbeat = 10 * time.Second

// Server executes RunSpec documents over HTTP:
//
//	POST /v1/run        synchronous: body RunSpec, response {result} (+ETag/304)
//	POST /v1/batch      sweep: body SweepSpec, streamed NDJSON/SSE per-cell results
//	POST /v1/jobs       asynchronous: body RunSpec, response 202 {id, status}
//	GET  /v1/jobs       job listing (?status= filter)
//	GET  /v1/jobs/{id}  job status/result
//	GET  /healthz       liveness + queued jobs + cache stats
//
// All executions go through one semaphore of Config.Workers slots, so the
// server never runs more simulations than the host has been budgeted for,
// no matter how requests arrive: an admitted job is one goroutine waiting
// for a slot exactly like a /v1/run request. Runs and predictions share
// Platforms through one hotpotato.PlatformCache.
// Shutdown stops intake, drains, then force-cancels stragglers through their
// run contexts.
type Server struct {
	cfg    Config
	logger *slog.Logger
	cache  *hotpotato.PlatformCache
	// twin is the analytical-twin model (Config.TwinModel); nil when the
	// server runs without one.
	twin *hotpotato.TwinModel
	// results caches finished runs by SpecHash.
	results *ResultCache
	// drift pairs /v1/predict answers with later full runs of the same
	// SpecHash to track the twin's online residual (see drift.go).
	drift *driftTracker
	jobs  *jobStore
	sem   chan struct{}

	// baseCtx parents every async run (and is grafted onto sync request
	// contexts), so cancelRuns aborts all in-flight simulations.
	baseCtx    context.Context
	cancelRuns context.CancelFunc

	closed atomic.Bool    // set by Shutdown: stop intake
	runs   sync.WaitGroup // in-flight requests and unfinished jobs
}

// New builds a server. It starts no goroutines: requests and jobs run on
// their own.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = DefaultJobRetention
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.MaxSweepCells == 0 {
		cfg.MaxSweepCells = DefaultMaxSweepCells
	}
	if cfg.MaxSweepCells > hotpotato.MaxSweepCells {
		cfg.MaxSweepCells = hotpotato.MaxSweepCells
	}
	if cfg.BatchHeartbeat <= 0 {
		cfg.BatchHeartbeat = DefaultBatchHeartbeat
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		cache:      hotpotato.NewPlatformCache(),
		twin:       cfg.TwinModel,
		results:    NewResultCache(cfg.ResultCacheEntries),
		drift:      newDriftTracker(),
		jobs:       newJobStore(cfg.Workers+cfg.QueueDepth, cfg.JobRetention),
		sem:        make(chan struct{}, cfg.Workers),
		baseCtx:    baseCtx,
		cancelRuns: cancel,
	}
	return s
}

// Cache exposes the platform cache (introspection and tests).
func (s *Server) Cache() *hotpotato.PlatformCache { return s.cache }

// Results exposes the result cache (introspection and tests).
func (s *Server) Results() *ResultCache { return s.results }

// Handler returns the HTTP routes, wrapped in the observability middleware
// (request-ID propagation + one structured access-log line per request).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleJobSpans)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withObservability(mux)
}

// runJob runs one admitted job to its terminal state. It waits for a slot
// like any /v1/run request; a job whose slot comes free only after Shutdown
// began ends canceled without running.
func (s *Server) runJob(j *jobState) {
	defer s.runs.Done()
	logger := s.logger.With("job_id", j.job.ID, "request_id", j.job.RequestID)
	ctx := obs.ContextWithSpan(s.baseCtx, j.rootSpan)
	ctx = obs.ContextWithLogger(ctx, logger)
	began := time.Now()
	res, prof, err := s.execute(ctx, j.spec, j.tracer, func() error {
		if s.closed.Load() {
			return fmt.Errorf("%w before starting: server shutting down", hotpotato.ErrCanceled)
		}
		s.jobs.start(j)
		logger.Info("job started", "queue_wait_ms", float64(time.Since(j.submittedAt).Nanoseconds())/1e6)
		return nil
	})
	// execute timed the slot wait from began; the job queued from submission.
	prof.QueueNS += began.Sub(j.submittedAt).Nanoseconds()
	prof.TotalNS = time.Since(j.submittedAt).Nanoseconds()
	ran := prof.TotalNS - prof.QueueNS
	metricJobLatency.Observe(float64(ran) / 1e9)
	metricJobsFinished.Inc()

	status := JobDone
	switch {
	case err == nil:
	case errors.Is(err, hotpotato.ErrCanceled):
		status = JobCanceled
	default:
		status = JobFailed
	}
	s.jobs.finish(j, status, res, prof, err)
	logger.Info("job finished",
		"status", string(status),
		"duration_ms", float64(ran)/1e6,
		"epochs", prof.Epochs,
		"error", errString(err),
	)
}

// errString renders err for a log attribute ("" when nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// execute runs one validated spec under the concurrency bound. The semaphore
// wait respects ctx, so a client that disconnects while queued never
// occupies a slot at all. onSlot, when non-nil, runs once the slot is held;
// an error from it ends the run there. The returned RunProfile is always
// non-nil and carries the phase breakdown measured so far (slot wait,
// platform build, the run's epoch phases, which the profile sums as one of
// the run's epoch tracers); callers fold in what only they can see
// (job-queue wait, end-to-end total). If ctx carries a span, each phase also
// records a child span.
func (s *Server) execute(ctx context.Context, spec hotpotato.RunSpec, tracer hotpotato.EpochTracer, onSlot func() error) (*hotpotato.Result, *obs.RunProfile, error) {
	prof := &obs.RunProfile{}
	root := obs.SpanFromContext(ctx)

	slotSpan := root.StartChild("slot_wait")
	slotBegan := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		prof.QueueNS += time.Since(slotBegan).Nanoseconds()
		err := fmt.Errorf("%w before starting: %v", hotpotato.ErrCanceled, context.Cause(ctx))
		slotSpan.SetError(err)
		slotSpan.End()
		return nil, prof, err
	}
	defer func() { <-s.sem }()
	slotSpan.End()
	prof.QueueNS += time.Since(slotBegan).Nanoseconds()
	if onSlot != nil {
		if err := onSlot(); err != nil {
			return nil, prof, err
		}
	}

	spec = spec.WithDefaults()
	buildSpan := root.StartChild("platform_build")
	buildBegan := time.Now()
	plat, err := s.cache.Get(spec.Platform)
	prof.BuildNS = time.Since(buildBegan).Nanoseconds()
	buildSpan.SetError(err)
	buildSpan.End()
	if err != nil {
		return nil, prof, err
	}

	execCtx, execSpan := obs.StartSpan(ctx, "execute_spec")
	res, err := hotpotato.ExecuteSpecOnPlatform(execCtx, plat, spec, prof, tracer)
	execSpan.SetError(err)
	execSpan.End()
	return res, prof, err
}

// decodeSpec reads, defaults and validates the request body; on failure it
// writes the 400 (every invalid field at once, via errors.Join) and reports
// !ok.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (hotpotato.RunSpec, bool) {
	var spec hotpotato.RunSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		metricBadRequests.Inc()
		obs.LoggerFrom(r.Context()).Warn("bad request", "reason", "undecodable RunSpec", "error", err.Error())
		fabric.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding RunSpec: %w", err))
		return spec, false
	}
	spec = spec.WithDefaults()
	// The service-level solver default fills only specs that left the choice
	// open. The shared helper is the same one /v1/batch applies per expanded
	// cell (and the fabric dispatcher fleet-wide), so one spec yields one
	// SpecHash through every door.
	fabric.ApplyDefaultSolver(&spec, s.cfg.DefaultSolver)
	if err := spec.Validate(); err != nil {
		metricBadRequests.Inc()
		obs.LoggerFrom(r.Context()).Warn("bad request", "reason", "invalid RunSpec", "error", err.Error())
		fabric.WriteError(w, http.StatusBadRequest, err)
		return spec, false
	}
	return spec, true
}

// runResponse is the envelope of POST /v1/run.
type runResponse struct {
	Result *hotpotato.Result `json:"result"`
	// Profile is the wall-clock breakdown of the run (queue/build/decide/
	// step) — the same summary async jobs carry. Absent on cache hits: a
	// replayed result has no phases of its own.
	Profile *obs.RunProfile `json:"profile,omitempty"`
	// Cached marks a result served from the content-addressed result cache
	// instead of a fresh simulation.
	Cached bool `json:"cached,omitempty"`
	// Error is set when the run ended early (e.g. MaxTime); the partial
	// result is still included.
	Error string `json:"error,omitempty"`
}

// cachedExecute runs one validated spec through the result cache: a fulfilled
// entry for hash replays instantly (cached=true), an in-flight entry
// coalesces onto its leader, and otherwise the caller becomes the leader and
// simulates under the usual concurrency bound. Only clean completions and
// MaxTime stops are cached; a leader whose run fails any other way abandons
// the slot and followers fall back to simulating themselves, so one
// disconnected client never poisons a hash for everyone behind it.
//
// Every clean completion — fresh or replayed — is also offered to the twin
// drift tracker: if /v1/predict answered for this hash earlier, the residual
// between simulation and prediction is recorded (once per prediction; see
// drift.go).
func (s *Server) cachedExecute(ctx context.Context, spec hotpotato.RunSpec, hash string) (res *hotpotato.Result, prof *obs.RunProfile, cached bool, err error) {
	defer func() {
		if err == nil {
			s.drift.Observe(hash, res)
		}
	}()
	entry, leader := s.results.Lookup(hash)
	if leader {
		res, prof, err := s.execute(ctx, spec, nil, nil)
		if err == nil || errors.Is(err, hotpotato.ErrTimeout) {
			s.results.Fulfill(hash, res, errString(err))
		} else {
			s.results.Abandon(hash)
		}
		return res, prof, false, err
	}
	res, errMsg, ok := entry.Wait(ctx)
	if !ok {
		if ctx.Err() != nil {
			return nil, &obs.RunProfile{}, false,
				fmt.Errorf("%w before starting: %v", hotpotato.ErrCanceled, context.Cause(ctx))
		}
		// The leader abandoned (its run failed transiently); run it ourselves
		// without re-entering the cache, so concurrent fallbacks cannot
		// re-elect each other forever. This uncached re-run is a miss the
		// Lookup above did not count (only leaders count there).
		s.results.RecordAbandonedFallback()
		res, prof, err := s.execute(ctx, spec, nil, nil)
		return res, prof, false, err
	}
	s.results.RecordHit()
	if errMsg != "" {
		err = cachedError{msg: errMsg}
	}
	return res, &obs.RunProfile{}, true, err
}

// specETag is the entity tag of a spec's response: the quoted SpecHash. The
// simulation is deterministic in the canonical spec, so the tag never goes
// stale and an If-None-Match match can answer 304 unconditionally.
func specETag(hash string) string { return `"` + hash + `"` }

// ifNoneMatchHas reports whether the If-None-Match header value matches etag
// ("*", or any listed tag, weak comparison).
func ifNoneMatchHas(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		fabric.WriteError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	// decodeSpec validated the spec, so hashing cannot fail.
	hash, _ := hotpotato.SpecHash(spec)
	etag := specETag(hash)
	if match := r.Header.Get("If-None-Match"); match != "" && ifNoneMatchHas(match, etag) {
		// Content-addressed: the tag is the spec's identity and the result is
		// deterministic, so a matching tag is current by construction — no
		// execution, no cache consultation.
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// The run dies with the request (client disconnect, deadline) or with
	// the server (shutdown force-cancel), whichever comes first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	s.runs.Add(1)
	defer s.runs.Done()

	metricRunRequests.Inc()
	began := time.Now()
	res, prof, cached, err := s.cachedExecute(ctx, spec, hash)
	metricRunLatency.Observe(time.Since(began).Seconds())
	if cached {
		prof = nil
	} else {
		prof.TotalNS = time.Since(began).Nanoseconds()
	}
	switch {
	case err == nil:
		w.Header().Set("ETag", etag)
		fabric.WriteJSON(w, http.StatusOK, runResponse{Result: res, Profile: prof, Cached: cached})
	case errors.Is(err, hotpotato.ErrTimeout):
		// The simulation hit its own MaxTime: a complete answer about an
		// incomplete workload, not a transport failure.
		w.Header().Set("ETag", etag)
		fabric.WriteJSON(w, http.StatusOK, runResponse{Result: res, Profile: prof, Cached: cached, Error: err.Error()})
	case errors.Is(err, hotpotato.ErrCanceled):
		fabric.WriteError(w, http.StatusServiceUnavailable, err)
	default:
		fabric.WriteError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		fabric.WriteError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	j := s.jobs.create(spec, requestIDFrom(r.Context()))
	if j == nil {
		metricJobsRejected.Inc()
		fabric.WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d pending)", s.jobs.capacity))
		return
	}
	j.tracer = obs.NewRingTracer(s.cfg.TraceDepth)
	j.spans = obs.NewSpanRecorder(s.cfg.SpanDepth)
	j.rootSpan = j.spans.Start("run")
	j.rootSpan.SetAttr("job_id", j.job.ID)
	j.rootSpan.SetAttr("request_id", j.job.RequestID)
	// The middleware's trace context links this job's local span tree to the
	// distributed trace of whoever submitted it (a traceparent-bearing
	// client, or the fabric dispatcher's sweep span).
	if tc := obs.TraceContextFrom(r.Context()); tc.Valid() {
		j.rootSpan.SetAttr("trace_id", tc.TraceID)
		j.rootSpan.SetAttr("parent_span_id", tc.SpanID)
	}
	metricJobsSubmitted.Inc()
	obs.LoggerFrom(r.Context()).Info("job queued",
		"job_id", j.job.ID, "queue_depth", s.jobs.queuedJobs())
	// The snapshot precedes the goroutine so the response reads "queued".
	snap := j.snapshot()
	s.runs.Add(1)
	go s.runJob(j)
	fabric.WriteJSON(w, http.StatusAccepted, snap)
}

// jobTrace is the envelope of GET /v1/jobs/{id}/trace.
type jobTrace struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Total is how many epochs the run has recorded so far; Dropped is how
	// many of those the bounded ring has already overwritten.
	Total   int64            `json:"total"`
	Dropped int64            `json:"dropped"`
	Events  []obs.EpochEvent `json:"events"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		fabric.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	snap := j.snapshot()
	fabric.WriteJSON(w, http.StatusOK, jobTrace{
		ID:      snap.ID,
		Status:  snap.Status,
		Total:   j.tracer.Total(),
		Dropped: j.tracer.Dropped(),
		Events:  j.tracer.Events(),
	})
}

// jobSpans is the envelope of GET /v1/jobs/{id}/spans.
type jobSpans struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Total is how many spans the run has started; Dropped is how many of
	// those exceeded the recorder capacity and were not retained.
	Total   int64           `json:"total"`
	Dropped int64           `json:"dropped"`
	Spans   []*obs.SpanNode `json:"spans"`
}

func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		fabric.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = j.spans.WriteJSONL(w)
		return
	}
	snap := j.snapshot()
	fabric.WriteJSON(w, http.StatusOK, jobSpans{
		ID:      snap.ID,
		Status:  snap.Status,
		Total:   j.spans.Total(),
		Dropped: j.spans.Dropped(),
		Spans:   j.spans.Tree(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		fabric.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	fabric.WriteJSON(w, http.StatusOK, j.snapshot())
}

// jobList is the envelope of GET /v1/jobs.
type jobList struct {
	Jobs []Job `json:"jobs"`
	// Count duplicates len(jobs) so clients paging by eye need not count.
	Count int `json:"count"`
}

// handleJobs lists known jobs in submission order, optionally filtered with
// ?status= (queued, running, done, failed, canceled). Jobs evicted after
// their retention are absent — the list is a live view, not an archive.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var filter JobStatus
	if q := r.URL.Query().Get("status"); q != "" {
		filter = JobStatus(q)
		switch filter {
		case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
		default:
			fabric.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("unknown status filter %q (want queued, running, done, failed or canceled)", q))
			return
		}
	}
	jobs := s.jobs.list(filter)
	fabric.WriteJSON(w, http.StatusOK, jobList{Jobs: jobs, Count: len(jobs)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.cache.Stats()
	rHits, rMisses, rEvictions := s.results.Stats()
	fabric.WriteJSON(w, http.StatusOK, map[string]any{
		"status":                 "ok",
		"queued":                 s.jobs.queuedJobs(),
		"workers":                s.cfg.Workers,
		"platform_hits":          hits,
		"platform_misses":        misses,
		"result_cache_entries":   s.results.Len(),
		"result_cache_bytes":     s.results.Bytes(),
		"result_cache_hits":      rHits,
		"result_cache_misses":    rMisses,
		"result_cache_evictions": rEvictions,
		"result_cache_abandoned": s.results.AbandonedFallbacks(),
	})
}

// Shutdown stops accepting work and drains: jobs still queued end canceled
// without running, and running jobs plus in-flight requests may finish until
// ctx expires. Then it force-cancels the remaining simulations — each aborts
// within one scheduler epoch of simulated progress (hotpotato.ErrCanceled) —
// and waits for them. Safe to call once; later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.logger.Info("shutdown: draining", "queued", s.jobs.queuedJobs())
	done := make(chan struct{})
	go func() {
		s.runs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelRuns()
		<-done
	}
	s.cancelRuns() // release the base context either way
	return err
}
