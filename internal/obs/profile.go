package obs

// RunProfile is the wall-clock breakdown of one served run — the summary a
// caller reads straight from the job response instead of scraping the span
// tree. All durations are host nanoseconds.
//
// Queue is the time from submission to a worker slot: for an async job from
// its POST /v1/jobs, for /v1/run and batch cells the semaphore wait alone.
// Build is the platform-cache lookup (microseconds on a hit, the full
// eigendecomposition on a miss). State, Decide, Apply and Step sum the run's
// measured epoch phases, which RunProfile receives as an epoch Tracer. Total
// also covers what no phase measures: task and scheduler construction and
// the observers themselves.
type RunProfile struct {
	TotalNS  int64 `json:"total_ns"`
	QueueNS  int64 `json:"queue_ns"`
	BuildNS  int64 `json:"build_ns"`
	StateNS  int64 `json:"state_ns"`
	DecideNS int64 `json:"decide_ns"`
	ApplyNS  int64 `json:"apply_ns"`
	StepNS   int64 `json:"step_ns"`
	// Epochs is how many scheduler epochs the run executed (DecideNS/Epochs
	// is the paper's §VI per-decision overhead metric).
	Epochs int `json:"epochs"`
}

// RecordEpoch implements Tracer: it adds one epoch's phases.
func (p *RunProfile) RecordEpoch(ev EpochEvent) {
	p.StateNS += ev.StateNS
	p.DecideNS += ev.WallNS
	p.ApplyNS += ev.ApplyNS
	p.StepNS += ev.StepNS
	p.Epochs++
}
