package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// POST /v1/predict: the analytical-twin fast path. The body is a PredictSpec
// (today exactly a RunSpec — the run to predict instead of simulate); the
// response carries the twin's three fields (peak steady-state temperature,
// transient peak, makespan), each a point estimate with a conservative
// confidence bound, plus the model identity that produced them. The twin
// only answers inside its calibrated domain; out-of-domain specs get 422
// out_of_domain and must use /v1/run. Predictions are deterministic in
// (spec, model): equal canonical specs against the same artifact yield
// byte-identical responses, which is why the ETag covers both hashes.

// predictResponse is the envelope of POST /v1/predict.
type predictResponse struct {
	// Prediction is the twin's answer: per-field estimate, bound (the max
	// residual observed over the calibration grid's held-out samples, with
	// safety margin), and a conclusive flag — false means the spec drifted
	// outside the calibration envelope and the field is advisory only.
	Prediction hotpotato.TwinPrediction `json:"prediction"`
	// ModelVersion and ModelHash identify the calibration artifact; replays
	// against a different artifact produce a different ETag.
	ModelVersion string `json:"model_version"`
	ModelHash    string `json:"model_hash"`
	// SpecHash is the canonical spec's content hash — the same identity
	// /v1/run uses, so a client can correlate a prediction with the run
	// that validates it.
	SpecHash string `json:"spec_hash"`
}

// predictETag is the entity tag of a prediction: spec hash plus model hash,
// because the response is a pure function of both.
func predictETag(specHash, modelHash string) string {
	return `"` + specHash + "+" + strings.TrimPrefix(modelHash, "sha256:") + `"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		fabric.WriteError(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	if s.twin == nil {
		fabric.WriteError(w, http.StatusServiceUnavailable,
			errors.New("no twin model loaded (start the server with -twin-model)"))
		return
	}
	var spec hotpotato.PredictSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		metricBadRequests.Inc()
		fabric.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding PredictSpec: %w", err))
		return
	}
	spec.RunSpec = spec.RunSpec.WithDefaults()
	if err := spec.RunSpec.Validate(); err != nil {
		metricBadRequests.Inc()
		fabric.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Validate succeeded, so hashing cannot fail.
	hash, _ := hotpotato.SpecHash(spec.RunSpec)
	etag := predictETag(hash, s.twin.Hash)
	if match := r.Header.Get("If-None-Match"); match != "" && ifNoneMatchHas(match, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	metricPredictRequests.Inc()
	plat, err := s.cache.Get(spec.RunSpec.Platform)
	if err != nil {
		fabric.WriteError(w, http.StatusBadRequest, err)
		return
	}
	pred, err := hotpotato.TwinPredict(s.twin, plat, spec.RunSpec)
	switch {
	case err == nil:
	case errors.Is(err, hotpotato.ErrTwinDomain):
		metricPredictDomainRejected.Inc()
		obs.LoggerFrom(r.Context()).Info("predict out of domain", "error", err.Error())
		fabric.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	default:
		fabric.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	// Arm the drift tracker: if a full run of this exact spec comes through
	// later, its peak temperature is checked against this transient-peak
	// prediction (see drift.go).
	s.drift.Predict(hash, pred.TransientPeakC)
	w.Header().Set("ETag", etag)
	fabric.WriteJSON(w, http.StatusOK, predictResponse{
		Prediction:   pred,
		ModelVersion: s.twin.Version,
		ModelHash:    s.twin.Hash,
		SpecHash:     hash,
	})
}
