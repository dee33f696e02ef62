package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	hotpotato "repro"
	"repro/internal/fabric"
)

// inDomainSpecJSON is a run the analytical twin can answer conclusively:
// default 4×4 substrates, the static pinner, an explicit workload, hardware
// DTM off (with DTM on, a transient estimate that cannot rule the trip out is
// demoted to inconclusive — see TwinPredict).
const inDomainSpecJSON = `{
	"platform":  {"width": 4, "height": 4},
	"scheduler": {"name": "static"},
	"sim":       {"dtm_enabled": false},
	"workload":  {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}
}`

// testTwinModel loads the committed calibration artifact from the repo root.
func testTwinModel(t *testing.T) *hotpotato.TwinModel {
	t.Helper()
	model, err := hotpotato.LoadTwinModelFile("../../TWIN_model.json")
	if err != nil {
		t.Fatalf("loading committed TWIN_model.json: %v", err)
	}
	return model
}

func decodePrediction(t *testing.T, body []byte) (pred struct {
	Prediction   hotpotato.TwinPrediction `json:"prediction"`
	ModelVersion string                   `json:"model_version"`
	ModelHash    string                   `json:"model_hash"`
	SpecHash     string                   `json:"spec_hash"`
}) {
	t.Helper()
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatalf("decoding predict response: %v\n%s", err, body)
	}
	return pred
}

func TestPredictWithoutModelUnavailable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when no -twin-model is loaded", resp.StatusCode)
	}
	var env fabric.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope error body: %v\n%s", err, body)
	}
	if env.Error.Code != fabric.CodeUnavailable {
		t.Errorf("code %q, want %q", env.Error.Code, fabric.CodeUnavailable)
	}
	if !strings.Contains(env.Error.Message, "twin-model") {
		t.Errorf("message does not point at the flag: %q", env.Error.Message)
	}
}

func TestPredictBadBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TwinModel: testTwinModel(t)})
	for _, body := range []string{`{`, `{"platform": {"width": -4}}`} {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, resp.StatusCode)
		}
		var env fabric.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("non-envelope error body: %v\n%s", err, raw)
		}
		if env.Error.Code != fabric.CodeInvalidRequest {
			t.Errorf("POST %q: code %q, want %q", body, env.Error.Code, fabric.CodeInvalidRequest)
		}
	}
}

func TestPredictOutOfDomain(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TwinModel: testTwinModel(t)})
	cases := map[string]string{
		// The twin is calibrated for the static pinner only.
		"scheduler": quickSpecJSON,
		// 5×5 is not a calibrated bucket.
		"bucket": `{"platform": {"width": 5, "height": 5}, "scheduler": {"name": "static"},
			"workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}}`,
	}
	for name, spec := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", spec)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, resp.StatusCode)
		}
		var env fabric.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: non-envelope error body: %v\n%s", name, err, raw)
		}
		if env.Error.Code != fabric.CodeOutOfDomain {
			t.Errorf("%s: code %q, want %q", name, env.Error.Code, fabric.CodeOutOfDomain)
		}
	}
}

// TestPredictAnswersAndBoundHolds is the endpoint's acceptance test: an
// in-domain spec gets finite estimates with positive bounds, the response is
// deterministic (bit-identical replays, ETag → 304), and the transient-peak
// bound actually contains the simulator's answer from /v1/run.
func TestPredictAnswersAndBoundHolds(t *testing.T) {
	model := testTwinModel(t)
	_, ts := newTestServer(t, Config{Workers: 2, TwinModel: model})

	resp, body := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Error("200 response carries no ETag")
	}
	pred := decodePrediction(t, body)
	if pred.ModelHash != model.Hash || pred.ModelVersion != model.Version {
		t.Errorf("model identity %s/%s, want %s/%s", pred.ModelVersion, pred.ModelHash, model.Version, model.Hash)
	}
	if !strings.HasPrefix(pred.SpecHash, "sha256:") {
		t.Errorf("spec hash %q", pred.SpecHash)
	}
	for name, f := range map[string]hotpotato.TwinField{
		"peak_steady_c":    pred.Prediction.SteadyPeakC,
		"peak_transient_c": pred.Prediction.TransientPeakC,
		"makespan_s":       pred.Prediction.MakespanS,
	} {
		if !f.Conclusive {
			t.Errorf("%s inconclusive for the in-domain spec", name)
		}
		if math.IsNaN(f.Estimate) || math.IsInf(f.Estimate, 0) || !(f.Bound > 0) || math.IsInf(f.Bound, 0) {
			t.Errorf("%s: estimate %g bound %g, want finite estimate and positive finite bound", name, f.Estimate, f.Bound)
		}
	}

	// Bit-identical replay: the response is a pure function of (spec, model).
	_, again := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON)
	if string(body) != string(again) {
		t.Errorf("replayed prediction differs:\n%s\n%s", body, again)
	}

	// Conditional replay: the ETag covers spec hash and model hash.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(inDomainSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	condResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	condResp.Body.Close()
	if condResp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match replay: status %d, want 304", condResp.StatusCode)
	}

	// Simulator-as-oracle: run the same spec for real and hold the bound.
	runResp, runBody := postJSON(t, ts.URL+"/v1/run", inDomainSpecJSON)
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run status %d: %s", runResp.StatusCode, runBody)
	}
	var run struct {
		Result *hotpotato.Result `json:"result"`
	}
	if err := json.Unmarshal(runBody, &run); err != nil {
		t.Fatal(err)
	}
	// /v1/run's ETag is the bare quoted spec hash; both endpoints must agree
	// on the spec's identity.
	if runTag := strings.Trim(runResp.Header.Get("ETag"), `"`); runTag != pred.SpecHash {
		t.Errorf("/v1/run ETag %s != prediction spec hash %s — the two endpoints must agree on identity", runTag, pred.SpecHash)
	}
	tp := pred.Prediction.TransientPeakC
	if d := math.Abs(tp.Estimate - run.Result.PeakTemp); d > tp.Bound {
		t.Errorf("transient bound violated against the simulator: |%g − %g| = %g > %g",
			tp.Estimate, run.Result.PeakTemp, d, tp.Bound)
	}
	mk := pred.Prediction.MakespanS
	if d := math.Abs(mk.Estimate - run.Result.Makespan); d > mk.Bound {
		t.Errorf("makespan bound violated against the simulator: |%g − %g| = %g > %g",
			mk.Estimate, run.Result.Makespan, d, mk.Bound)
	}
}

// TestBatchPrunesWithTwin drives the opt-in sweep pruner end to end: a
// two-cell sweep where one cell is in the twin's domain (pruned below an
// adaptive threshold) and one is not (simulated as usual). The stream must
// carry the prune decision, and the summary counters must partition.
func TestBatchPrunesWithTwin(t *testing.T) {
	model := testTwinModel(t)
	_, ts := newTestServer(t, Config{Workers: 2, TwinModel: model})

	// Learn the twin's interval for the in-domain cell, then set the sweep
	// threshold safely above est+bound so the verdict must be "below".
	resp, body := postJSON(t, ts.URL+"/v1/predict", inDomainSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	tp := decodePrediction(t, body).Prediction.TransientPeakC
	if !tp.Conclusive {
		t.Fatal("in-domain cell inconclusive; cannot drive the pruner")
	}
	threshold := tp.Estimate + tp.Bound + 1

	sweep := fmt.Sprintf(`{
		"base": {"platform": {"width": 4, "height": 4}, "sim": {"dtm_enabled": false},
			"workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}},
		"axes": {"schedulers": [{"name": "static"}, {"name": "hotpotato"}]},
		"prune_above_temp": %g
	}`, threshold)
	httpResp, records := postBatch(t, ts.URL+"/v1/batch", sweep)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", httpResp.StatusCode)
	}

	var pruned, ok int
	var summary *batchRecord
	for i := range records {
		rec := records[i]
		switch rec.Type {
		case "result":
			switch rec.Status {
			case "pruned":
				pruned++
				if rec.Result != nil {
					t.Errorf("pruned cell %d carries a simulation result", rec.Index)
				}
				if string(rec.Pruned) != "true" {
					t.Errorf("pruned cell %d: pruned flag %s", rec.Index, rec.Pruned)
				}
				if rec.Prune == nil || rec.Prune.Verdict != "below" {
					t.Errorf("pruned cell %d: prune decision %+v, want verdict below", rec.Index, rec.Prune)
				} else if rec.Prune.PeakC+rec.Prune.BoundC >= threshold {
					t.Errorf("pruned cell %d: interval %g±%g does not clear threshold %g",
						rec.Index, rec.Prune.PeakC, rec.Prune.BoundC, threshold)
				}
				if !strings.HasPrefix(rec.Hash, "sha256:") {
					t.Errorf("pruned cell %d lost its spec hash: %q", rec.Index, rec.Hash)
				}
			case "ok":
				ok++
			default:
				t.Errorf("cell %d: status %q", rec.Index, rec.Status)
			}
		case "summary":
			summary = &records[i]
		}
	}
	if pruned != 1 || ok != 1 {
		t.Errorf("pruned=%d ok=%d, want 1 and 1 (static cell pruned, hotpotato cell out of the twin's domain)", pruned, ok)
	}
	if summary == nil {
		t.Fatal("no summary record")
	}
	if summary.Completed != 1 || string(summary.Pruned) != "1" {
		t.Errorf("summary completed=%d pruned=%s, want 1 and 1", summary.Completed, summary.Pruned)
	}
}

// TestBatchPruneRequiresModel: prune_above_temp on a server without a twin
// model degrades to a plain (unpruned) sweep rather than failing.
func TestBatchPruneRequiresModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	sweep := `{
		"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "static"},
			"workload": {"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]}},
		"prune_above_temp": 200
	}`
	resp, records := postBatch(t, ts.URL+"/v1/batch", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	for _, rec := range records {
		if rec.Type == "result" && rec.Status != "ok" {
			t.Errorf("cell %d: status %q, want ok (no model ⇒ no pruning)", rec.Index, rec.Status)
		}
		if rec.Type == "summary" && rec.Completed != 1 {
			t.Errorf("summary completed=%d, want 1", rec.Completed)
		}
	}
}

// TestBatchPrunerSharesServerPlatform: the /v1/batch twin pruner looks its
// platform up in the server's own cache, so a sweep whose cells are all
// pruned builds nothing once the server holds the default 4×4 chip — also
// for cells that ask for the sparse solver, because the twin predicts on
// DefaultPlatformConfig whatever the cell declares. The pruned records are
// byte-equal to those of the pruner's earlier private platform.
func TestBatchPrunerSharesServerPlatform(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, TwinModel: testTwinModel(t)})
	if _, err := svc.Cache().Get(hotpotato.RunSpec{Platform: hotpotato.DefaultPlatformConfig(4, 4)}.WithDefaults().Platform); err != nil {
		t.Fatal(err)
	}
	want := map[float64][]string{
		200: {
			`{"type":"result","index":0,"hash":"sha256:7ff9484fe04d5e5c371b850f6d150bac601f91a17948cc7c6f21afafbfd24726","status":"pruned","pruned":true,"prune":{"verdict":"below","peak_c":66.09945789005747,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":1,"hash":"sha256:9c013af646e5dde1cf02992f1f0b736e9431b000433d0c551b35d59d83f72a9f","status":"pruned","pruned":true,"prune":{"verdict":"below","peak_c":66.09945789005747,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":2,"hash":"sha256:8563d0c0d604332ee7417be515930377cd94669cb2a497c7d9ac890a844e25fc","status":"pruned","pruned":true,"prune":{"verdict":"below","peak_c":67.71828432900608,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":3,"hash":"sha256:a2e27aa63555608e980fe1cdf57717fe52efa232394b9a5a74d2f0a277686bed","status":"pruned","pruned":true,"prune":{"verdict":"below","peak_c":67.71828432900608,"bound_c":18.174769897192835}}`,
		},
		40: {
			`{"type":"result","index":0,"hash":"sha256:7ff9484fe04d5e5c371b850f6d150bac601f91a17948cc7c6f21afafbfd24726","status":"pruned","pruned":true,"prune":{"verdict":"above","peak_c":66.09945789005747,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":1,"hash":"sha256:9c013af646e5dde1cf02992f1f0b736e9431b000433d0c551b35d59d83f72a9f","status":"pruned","pruned":true,"prune":{"verdict":"above","peak_c":66.09945789005747,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":2,"hash":"sha256:8563d0c0d604332ee7417be515930377cd94669cb2a497c7d9ac890a844e25fc","status":"pruned","pruned":true,"prune":{"verdict":"above","peak_c":67.71828432900608,"bound_c":18.174769897192835}}`,
			`{"type":"result","index":3,"hash":"sha256:a2e27aa63555608e980fe1cdf57717fe52efa232394b9a5a74d2f0a277686bed","status":"pruned","pruned":true,"prune":{"verdict":"above","peak_c":67.71828432900608,"bound_c":18.174769897192835}}`,
		},
	}
	for _, threshold := range []float64{200, 40} {
		_, before := svc.Cache().Stats()
		sweep := fmt.Sprintf(`{
			"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "static"}, "sim": {"dtm_enabled": false}},
			"axes": {"workloads": [
				{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]},
				{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 4, "work_scale": 0.3}]}],
				"solvers": ["", "sparse"]},
			"prune_above_temp": %g
		}`, threshold)
		resp, body := postJSON(t, ts.URL+"/v1/batch", sweep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("threshold %g: batch status %d: %s", threshold, resp.StatusCode, body)
		}
		got := make([]string, len(want[threshold]))
		for _, line := range strings.Split(string(body), "\n") {
			var rec batchRecord
			if json.Unmarshal([]byte(line), &rec) != nil || rec.Type != "result" {
				continue
			}
			if rec.Index < 0 || rec.Index >= len(got) {
				t.Fatalf("threshold %g: record index %d out of range", threshold, rec.Index)
			}
			got[rec.Index] = line
		}
		for i := range got {
			if got[i] != want[threshold][i] {
				t.Errorf("threshold %g cell %d:\n got %s\nwant %s", threshold, i, got[i], want[threshold][i])
			}
		}
		if _, after := svc.Cache().Stats(); after != before {
			t.Errorf("threshold %g: pruned sweep built %d platforms, want 0", threshold, after-before)
		}
	}
}
