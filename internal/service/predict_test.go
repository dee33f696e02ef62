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

// TestBatchIgnoresPruneThreshold: a sweep document that still carries the
// retired "prune_above_temp" field runs every cell, on a server that holds a
// twin model and through a dispatcher alike. The cells are static-pinner 4×4
// runs inside the twin's domain, on both solvers, so a twin-backed shortcut
// would have had every one of them to skip. Both doors stream each cell as
// ok with a result, and the two record sets are identical apart from the
// host wall-clock field.
func TestBatchIgnoresPruneThreshold(t *testing.T) {
	const sweep = `{
		"base": {"platform": {"width": 4, "height": 4}, "scheduler": {"name": "static"}, "sim": {"dtm_enabled": false}},
		"axes": {"workloads": [
			{"kind": "explicit", "tasks": [{"bench": "blackscholes", "threads": 2, "work_scale": 0.3}]},
			{"kind": "explicit", "tasks": [{"bench": "swaptions", "threads": 4, "work_scale": 0.3}]}],
			"solvers": ["", "sparse"]},
		"prune_above_temp": 200
	}`
	const cells = 4
	var sets []map[int]string
	for _, door := range batchDoors(t, Config{Workers: 2, TwinModel: testTwinModel(t)}) {
		resp, body := postJSON(t, door.url+"/v1/batch", sweep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %d: %s", door.name, resp.StatusCode, body)
		}
		set := map[int]string{}
		var summary *batchRecord
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if strings.Contains(line, `"prune`) {
				t.Errorf("%s: record mentions pruning: %s", door.name, line)
			}
			var rec batchRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad NDJSON line: %v\n%s", door.name, err, line)
			}
			switch rec.Type {
			case "result":
				if rec.Status != "ok" || rec.Result == nil {
					t.Errorf("%s: cell %d status %q result %v (%s)", door.name, rec.Index, rec.Status, rec.Result != nil, rec.Error)
					continue
				}
				rec.Result.SchedulerHostTime = 0
				res, _ := json.Marshal(rec.Result)
				set[rec.Index] = fmt.Sprintf("%s %v %s", rec.Hash, rec.Cached, res)
			case "summary":
				summary = &rec
			}
		}
		if len(set) != cells {
			t.Errorf("%s: %d ok cells, want %d", door.name, len(set), cells)
		}
		if summary == nil || summary.Completed != cells {
			t.Errorf("%s: summary %+v, want %d completed", door.name, summary, cells)
		}
		sets = append(sets, set)
	}
	for idx, want := range sets[0] {
		if got := sets[1][idx]; got != want {
			t.Errorf("cell %d: dispatcher record differs from the server's:\n got %s\nwant %s", idx, got, want)
		}
	}
}
