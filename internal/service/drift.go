package service

import (
	"math"
	"sync"

	hotpotato "repro"
	"repro/internal/obs"
)

// drift.go closes the twin-accuracy loop online — the live counterpart of
// twin_diff_test.go's offline guarantee. Every /v1/predict answer is
// remembered by SpecHash; when a full simulation for the same hash completes
// (through /v1/run, a batch cell, or a fabric lease — all of them pass
// through cachedExecute), the signed residual between the simulated peak
// temperature and the twin's transient-peak estimate lands in the
// twin_residual histogram, and a conclusive prediction whose bound did not
// hold increments twin_bound_violations_total. A violation staying at zero
// in production is the evidence that the committed TWIN_model.json's bounds
// still hold on live traffic.

var (
	metricTwinDriftChecks = obs.NewCounter("twin_drift_checks_total",
		"Predict-then-simulate pairs that closed (same SpecHash seen by /v1/predict and a full run).")
	metricTwinBoundViolations = obs.NewCounter("twin_bound_violations_total",
		"Drift checks where |residual| exceeded a conclusive prediction's error bound.")
	// Bounds are °C of signed residual (simulated minus predicted), symmetric
	// around zero so under- and over-prediction are distinguishable.
	metricTwinResidual = obs.NewHistogram("twin_residual",
		"Signed twin transient-peak residual in degrees C: simulated peak minus predicted estimate.",
		[]float64{-5, -2, -1, -0.5, -0.2, -0.05, 0.05, 0.2, 0.5, 1, 2, 5})
)

// driftTrackerEntries bounds the pending predictions. Predictions beyond
// the cap evict the oldest pending entry (FIFO) — a server that predicts
// thousands of specs without running them should not grow without bound.
const driftTrackerEntries = 1024

// pendingPrediction is what a drift check needs from a /v1/predict answer.
type pendingPrediction struct {
	estimateC  float64
	boundC     float64
	conclusive bool
}

// driftTracker matches /v1/predict answers with full simulation results by
// SpecHash. Safe for concurrent use.
type driftTracker struct {
	mu sync.Mutex
	// pending maps SpecHash → the prediction awaiting a full run; order is
	// the FIFO eviction queue.
	pending map[string]pendingPrediction
	order   []string
}

func newDriftTracker() *driftTracker {
	return &driftTracker{pending: map[string]pendingPrediction{}}
}

// Predict arms the tracker: the next full run of hash closes an observation.
// Re-predicting the same hash refreshes the entry (and re-arms a hash whose
// observation already closed).
func (t *driftTracker) Predict(hash string, field hotpotato.TwinField) {
	if t == nil || hash == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.pending[hash]; !exists {
		if len(t.pending) >= driftTrackerEntries {
			// Evict the oldest still-pending hash.
			for len(t.order) > 0 {
				oldest := t.order[0]
				t.order = t.order[1:]
				if _, ok := t.pending[oldest]; ok {
					delete(t.pending, oldest)
					break
				}
			}
		}
		t.order = append(t.order, hash)
	}
	t.pending[hash] = pendingPrediction{
		estimateC:  field.Estimate,
		boundC:     field.Bound,
		conclusive: field.Conclusive,
	}
}

// Observe closes the loop for a finished full simulation: if hash has a
// pending prediction, the residual is recorded into the twin drift metrics.
// Each prediction closes at most once — a cache hit replaying the same result
// must not double count.
func (t *driftTracker) Observe(hash string, res *hotpotato.Result) {
	if t == nil || hash == "" || res == nil || math.IsNaN(res.PeakTemp) {
		return
	}
	t.mu.Lock()
	pred, ok := t.pending[hash]
	delete(t.pending, hash)
	t.mu.Unlock()
	if !ok {
		return
	}
	residual := res.PeakTemp - pred.estimateC
	metricTwinDriftChecks.Inc()
	metricTwinResidual.Observe(residual)
	if pred.conclusive && math.Abs(residual) > pred.boundC {
		metricTwinBoundViolations.Inc()
	}
}
