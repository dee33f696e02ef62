package fabric

import (
	"encoding/json"
	"net/http"
)

// Error codes of the v1 JSON error envelope, shared by hotpotato-server and
// the dispatcher. Every non-2xx response from either is
// {"error": {"code", "message", "fields"}}; the code is a stable
// machine-readable name derived from the HTTP status, so clients branch on
// it instead of parsing message text. The status→code mapping is documented
// in docs/API.md and pinned by its drift gate.
const (
	// CodeInvalidRequest (400): the body did not decode or the spec failed
	// validation; fields lists every problem found.
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound (404): no such job or sweep (possibly evicted).
	CodeNotFound = "not_found"
	// CodeTooLarge (413): the sweep's cross-product exceeds the admission
	// limit.
	CodeTooLarge = "too_large"
	// CodeOutOfDomain (422): the spec is well-formed but outside the
	// analytical twin's calibrated domain; run the full simulator instead.
	CodeOutOfDomain = "out_of_domain"
	// CodeOverCapacity (429): the async job queue is full; retry later.
	CodeOverCapacity = "over_capacity"
	// CodeUnavailable (503): the server is shutting down or the run was
	// canceled server-side.
	CodeUnavailable = "unavailable"
	// CodeInternal (500): an unexpected execution failure.
	CodeInternal = "internal"
)

// APIError is the inner object of the v1 error envelope.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Fields itemizes multi-error validation failures (one entry per invalid
	// field, from errors.Join); absent when the error is singular.
	Fields []string `json:"fields,omitempty"`
}

// ErrorEnvelope is the uniform non-2xx response body.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// ErrorCode maps an HTTP status to its envelope code.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeOutOfDomain
	case http.StatusTooManyRequests:
		return CodeOverCapacity
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// WriteError emits the v1 JSON error envelope — the single error path of
// every handler in both packages. Multi-errors (errors.Join from Validate)
// unpack into Fields so a client sees every invalid field in one round trip.
func WriteError(w http.ResponseWriter, status int, err error) {
	env := ErrorEnvelope{Error: APIError{Code: ErrorCode(status), Message: err.Error()}}
	if multi, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range multi.Unwrap() {
			env.Error.Fields = append(env.Error.Fields, e.Error())
		}
	}
	WriteJSON(w, status, env)
}

// WriteJSON writes v as an indented JSON response body with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; nothing sensible to do on error
}
