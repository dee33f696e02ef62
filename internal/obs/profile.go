package obs

import "time"

// RunProfile is the wall-clock breakdown of one served run — the summary a
// caller reads straight from the job response instead of scraping the span
// tree. All durations are host nanoseconds.
//
// The phases tile the run: Total ≈ Queue + Build + Decide + Step (small gaps
// are bookkeeping between phases). Queue is the time from submission to a
// worker slot: for an async job from its POST /v1/jobs, for /v1/run and
// batch cells the semaphore wait alone. Build is the platform-cache lookup
// (microseconds on a hit, the full eigendecomposition on a miss); Decide is
// the host time inside scheduler Decide calls summed over every epoch; Step
// is the remainder of the simulation — dominated by slice-batch thermal
// stepping.
type RunProfile struct {
	TotalNS  int64 `json:"total_ns"`
	QueueNS  int64 `json:"queue_ns"`
	BuildNS  int64 `json:"build_ns"`
	DecideNS int64 `json:"decide_ns"`
	StepNS   int64 `json:"step_ns"`
	// Epochs is how many scheduler epochs the run executed (DecideNS/Epochs
	// is the paper's §VI per-decision overhead metric).
	Epochs int `json:"epochs"`
}

// Total returns the end-to-end duration.
func (p RunProfile) Total() time.Duration { return time.Duration(p.TotalNS) }
