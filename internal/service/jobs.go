package service

import (
	"sort"
	"sync"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// JobStatus is the lifecycle state of an async submission.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// Job is the public view of one async submission, as returned by
// GET /v1/jobs/{id}. Result is set once Status is done (and also for failed
// runs that produced a partial result, e.g. timeouts). RequestID is the
// correlation ID of the submitting request — the same value the submit
// response carried in its X-Request-Id header — so a caller can join job
// polls, access-log lines and span trees on one key. Profile is the
// wall-clock breakdown (queue/build and the epoch phases) filled in when the
// job reaches a terminal state.
type Job struct {
	ID        string            `json:"id"`
	Status    JobStatus         `json:"status"`
	RequestID string            `json:"request_id,omitempty"`
	Result    *hotpotato.Result `json:"result,omitempty"`
	Profile   *obs.RunProfile   `json:"profile,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// Terminal reports whether s is a final state (the job will never run again).
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// jobState is the store's mutable record behind a Job view.
type jobState struct {
	mu   sync.Mutex
	job  Job
	spec hotpotato.RunSpec
	// tracer collects one obs.EpochEvent per scheduler epoch of the run for
	// GET /v1/jobs/{id}/trace. It is internally synchronized — the trace
	// endpoint reads it mid-run.
	tracer *obs.RingTracer
	// spans records the job's phase timings for GET /v1/jobs/{id}/spans.
	// rootSpan is the "run" span opened at submission and closed at the
	// terminal transition.
	spans    *obs.SpanRecorder
	rootSpan *obs.Span
	// submittedAt anchors the job's RunProfile total and queue durations.
	submittedAt time.Time
	// doneAt is when the job reached a terminal status; the store evicts
	// the record once it has been terminal for the configured retention.
	doneAt time.Time
}

func (j *jobState) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.job
}

// terminalSince returns when the job entered a terminal status, and whether
// it has.
func (j *jobState) terminalSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneAt, j.job.Status.Terminal()
}

// jobStore tracks every submission by ID. It admits a job only while fewer
// than capacity jobs are unfinished, and it evicts jobs that have been
// terminal for longer than retention inside its own create, get and list
// calls.
type jobStore struct {
	capacity  int
	retention time.Duration

	mu sync.Mutex
	// ids mints job IDs unique across server restarts, sorted in
	// submission order.
	ids  fabric.IDs
	jobs map[string]*jobState
	// queued counts the jobs waiting for a worker slot; unfinished counts
	// those plus the running ones.
	queued, unfinished int
	// swept is when expire last scanned the store.
	swept time.Time
}

func newJobStore(capacity int, retention time.Duration) *jobStore {
	return &jobStore{capacity: capacity, retention: retention,
		ids: fabric.NewIDs(time.Now()), jobs: make(map[string]*jobState)}
}

// create admits a queued job, or returns nil when capacity jobs are already
// unfinished.
func (s *jobStore) create(spec hotpotato.RunSpec, requestID string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire()
	if s.unfinished >= s.capacity {
		return nil
	}
	j := &jobState{
		job:         Job{ID: s.ids.Next("job"), Status: JobQueued, RequestID: requestID},
		spec:        spec,
		submittedAt: time.Now(),
	}
	s.jobs[j.job.ID] = j
	s.unfinished++
	s.setQueued(s.queued + 1)
	return j
}

// start moves a queued job to running once it holds a worker slot.
func (s *jobStore) start(j *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	j.job.Status = JobRunning
	j.mu.Unlock()
	s.setQueued(s.queued - 1)
}

// finish records a job's terminal state and closes its root span.
func (s *jobStore) finish(j *jobState, status JobStatus, res *hotpotato.Result, prof *obs.RunProfile, err error) {
	s.mu.Lock()
	j.mu.Lock()
	if j.job.Status == JobQueued {
		s.setQueued(s.queued - 1)
	}
	s.unfinished--
	j.job.Status = status
	j.job.Result = res
	j.job.Profile = prof
	if err != nil {
		j.job.Error = err.Error()
	}
	j.doneAt = time.Now()
	j.mu.Unlock()
	s.mu.Unlock()
	j.rootSpan.SetError(err)
	j.rootSpan.SetAttr("status", string(status))
	j.rootSpan.End()
}

// setQueued sets the queued count and the gauge that exports it; s.mu must
// be held.
func (s *jobStore) setQueued(n int) {
	s.queued = n
	metricQueueDepth.Set(float64(n))
}

// queuedJobs returns how many jobs are waiting for a worker slot.
func (s *jobStore) queuedJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

func (s *jobStore) get(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns snapshots of every stored job in submission order (the order
// of their IDs), keeping only those whose status equals filter ("" keeps
// all). Evicted jobs are simply absent — the store is a live view bounded by
// the retention, not an archive.
func (s *jobStore) list(filter JobStatus) []Job {
	s.mu.Lock()
	s.expire()
	states := make([]*jobState, 0, len(s.jobs))
	for _, j := range s.jobs {
		states = append(states, j)
	}
	s.mu.Unlock()
	jobs := make([]Job, 0, len(states))
	for _, j := range states {
		snap := j.snapshot()
		if filter != "" && snap.Status != filter {
			continue
		}
		jobs = append(jobs, snap)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs
}

// expire evicts the jobs terminal for longer than the retention. It scans at
// most once per quarter retention, so a store polled in a tight loop does
// not rescan every job on every call, and a job outlives its retention by at
// most a quarter. s.mu must be held.
func (s *jobStore) expire() {
	now := time.Now()
	if now.Sub(s.swept) < s.retention/4 {
		return
	}
	s.swept = now
	s.evictTerminal(now.Add(-s.retention))
}

// evictTerminal removes every job that reached a terminal status at or before
// cutoff, returning how many were evicted. Queued and running jobs are never
// touched. s.mu must be held.
func (s *jobStore) evictTerminal(cutoff time.Time) int {
	evicted := 0
	for id, j := range s.jobs {
		if doneAt, terminal := j.terminalSince(); terminal && !doneAt.After(cutoff) {
			delete(s.jobs, id)
			evicted++
		}
	}
	return evicted
}
