package service

// drift_test.go is the online twin-drift acceptance test: a /v1/predict
// answer armed for a spec hash must be closed by the next full simulation of
// that hash — whether the run is fresh or a result-cache hit — producing one
// residual observation and zero bound violations for the committed
// calibration artifact.

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	hotpotato "repro"
)

func TestTwinDriftPredictThenRun(t *testing.T) {
	model := testTwinModel(t)
	_, ts := newTestServer(t, Config{Workers: 2, TwinModel: model})

	checks0 := metricTwinDriftChecks.Value()
	violations0 := metricTwinBoundViolations.Value()
	residuals0 := metricTwinResidual.Count()
	residualSum0 := metricTwinResidual.Sum()

	resp, body := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	pred := decodePrediction(t, body)

	// A prediction alone observes nothing — drift needs the simulator's
	// answer.
	if got := metricTwinDriftChecks.Value(); got != checks0 {
		t.Fatalf("predict alone moved twin_drift_checks_total by %d", got-checks0)
	}

	runResp, runBody := postJSON(t, ts.URL+"/v1/run", inDomainSpecJSON)
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", runResp.StatusCode, runBody)
	}

	if got := metricTwinDriftChecks.Value(); got != checks0+1 {
		t.Fatalf("twin_drift_checks_total moved by %d, want 1", got-checks0)
	}
	if got := metricTwinResidual.Count(); got != residuals0+1 {
		t.Errorf("twin_residual count moved by %d, want 1", got-residuals0)
	}
	// The committed TWIN_model.json's transient-peak bound contains the
	// simulator's answer for the in-domain spec (TestPredictAnswersAndBoundHolds
	// proves the general claim), so no violation may be recorded.
	if got := metricTwinBoundViolations.Value(); got != violations0 {
		t.Errorf("twin_bound_violations_total moved by %d, want 0", got-violations0)
	}

	residual := metricTwinResidual.Sum() - residualSum0
	if math.IsNaN(residual) || math.Abs(residual) > pred.Prediction.TransientPeakC.Bound {
		t.Errorf("residual %g °C outside the model bound %g", residual, pred.Prediction.TransientPeakC.Bound)
	}

	// Re-arm and replay: the second run is a result-cache hit, and a cached
	// result must still close the pending prediction.
	if resp, body := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-predict status %d: %s", resp.StatusCode, body)
	}
	runResp2, runBody2 := postJSON(t, ts.URL+"/v1/run", inDomainSpecJSON)
	if runResp2.StatusCode != http.StatusOK {
		t.Fatalf("cached run status %d: %s", runResp2.StatusCode, runBody2)
	}
	if got := metricTwinDriftChecks.Value(); got != checks0+2 {
		t.Errorf("after cached replay twin_drift_checks_total moved by %d, want 2", got-checks0)
	}
}

func TestDriftTrackerEvictionAndGuards(t *testing.T) {
	tr := newDriftTracker()
	checks0 := metricTwinDriftChecks.Value()
	violations0 := metricTwinBoundViolations.Value()
	residuals0 := metricTwinResidual.Count()
	residualSum0 := metricTwinResidual.Sum()
	// observe checks the cumulative moves since the start: wantResidualSum is
	// the sum of the signed residuals (simulated peak minus estimate) that
	// the closed checks fed into twin_residual, one observation per check.
	observe := func(hash string, res *hotpotato.Result, wantChecks, wantViolations int64, wantResidualSum float64) {
		t.Helper()
		tr.Observe(hash, res)
		if got := metricTwinDriftChecks.Value() - checks0; got != wantChecks {
			t.Errorf("after %s: twin_drift_checks_total moved by %d, want %d", hash, got, wantChecks)
		}
		if got := metricTwinBoundViolations.Value() - violations0; got != wantViolations {
			t.Errorf("after %s: twin_bound_violations_total moved by %d, want %d", hash, got, wantViolations)
		}
		if got := metricTwinResidual.Count() - residuals0; got != wantChecks {
			t.Errorf("after %s: twin_residual count moved by %d, want %d", hash, got, wantChecks)
		}
		// The tolerance only absorbs rounding against an earlier test's sum.
		if got := metricTwinResidual.Sum() - residualSum0; math.Abs(got-wantResidualSum) > 1e-9 {
			t.Errorf("after %s: twin_residual sum moved by %g, want %g", hash, got, wantResidualSum)
		}
	}

	// Unarmed hashes and nil results are ignored outright.
	observe("sha256:unarmed", &hotpotato.Result{PeakTemp: 70}, 0, 0, 0)
	observe("sha256:unarmed", nil, 0, 0, 0)

	// Inconclusive predictions close with a residual but can never violate.
	tr.Predict("sha256:soft", hotpotato.TwinField{Estimate: 60, Bound: 0.1, Conclusive: false})
	observe("sha256:soft", &hotpotato.Result{PeakTemp: 99}, 1, 0, 39)

	// A conclusive prediction outside its bound flags the violation with the
	// signed residual +10 (simulated 70 minus estimated 60), and closes only
	// once.
	tr.Predict("sha256:hard", hotpotato.TwinField{Estimate: 60, Bound: 1, Conclusive: true})
	observe("sha256:hard", &hotpotato.Result{PeakTemp: 70}, 2, 1, 49)
	observe("sha256:hard", &hotpotato.Result{PeakTemp: 70}, 2, 1, 49)

	// An over-prediction records a negative residual.
	tr.Predict("sha256:over", hotpotato.TwinField{Estimate: 80, Bound: 100, Conclusive: true})
	observe("sha256:over", &hotpotato.Result{PeakTemp: 75}, 3, 1, 44)

	// FIFO eviction: overfilling the pending set drops the oldest arm.
	tr.Predict("sha256:oldest", hotpotato.TwinField{Estimate: 1, Bound: 1, Conclusive: true})
	for i := 0; i < driftTrackerEntries; i++ {
		tr.Predict(fmt.Sprintf("sha256:filler-%d", i), hotpotato.TwinField{Estimate: 1, Bound: 1, Conclusive: true})
	}
	observe("sha256:oldest", &hotpotato.Result{PeakTemp: 50}, 3, 1, 44)
}
