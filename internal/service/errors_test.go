package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
)

// TestErrorEnvelope drives every non-2xx path of the v1 surface and asserts
// the single JSON error envelope: {"error": {"code", "message", fields...}}
// with the documented status→code mapping.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxSweepCells: 2})

	cases := []struct {
		name       string
		do         func(t *testing.T) (*http.Response, []byte)
		status     int
		code       string
		fragment   string // must appear in the message
		wantFields bool
	}{
		{
			name: "undecodable run body",
			do: func(t *testing.T) (*http.Response, []byte) {
				return postJSON(t, ts.URL+"/v1/run", `{not json`)
			},
			status: http.StatusBadRequest, code: fabric.CodeInvalidRequest, fragment: "decoding RunSpec",
		},
		{
			name: "invalid run spec lists every field",
			do: func(t *testing.T) (*http.Response, []byte) {
				return postJSON(t, ts.URL+"/v1/run", `{"scheduler": {"name": "no-such"}, "workload": {"kind": "bogus"}}`)
			},
			status: http.StatusBadRequest, code: fabric.CodeInvalidRequest, fragment: "no-such", wantFields: true,
		},
		{
			name: "undecodable sweep body",
			do: func(t *testing.T) (*http.Response, []byte) {
				return postJSON(t, ts.URL+"/v1/batch", `[1,2`)
			},
			status: http.StatusBadRequest, code: fabric.CodeInvalidRequest, fragment: "decoding SweepSpec",
		},
		{
			name: "unknown sweep version",
			do: func(t *testing.T) (*http.Response, []byte) {
				return postJSON(t, ts.URL+"/v1/batch", `{"version": "v9"}`)
			},
			status: http.StatusBadRequest, code: fabric.CodeInvalidRequest, fragment: "version",
		},
		{
			name: "oversized sweep",
			do: func(t *testing.T) (*http.Response, []byte) {
				return postJSON(t, ts.URL+"/v1/batch", `{"axes": {"seeds": [1, 2, 3], "solvers": ["dense", "sparse"]}}`)
			},
			status: http.StatusRequestEntityTooLarge, code: fabric.CodeTooLarge, fragment: "6 cells",
		},
		{
			name: "unknown job",
			do: func(t *testing.T) (*http.Response, []byte) {
				return getJSON(t, ts.URL+"/v1/jobs/job-999")
			},
			status: http.StatusNotFound, code: fabric.CodeNotFound, fragment: "job-999",
		},
		{
			name: "bad jobs status filter",
			do: func(t *testing.T) (*http.Response, []byte) {
				return getJSON(t, ts.URL+"/v1/jobs?status=exploded")
			},
			status: http.StatusBadRequest, code: fabric.CodeInvalidRequest, fragment: "exploded",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := c.do(t)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, body)
			}
			var env fabric.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, body)
			}
			if env.Error.Code != c.code {
				t.Errorf("code %q, want %q", env.Error.Code, c.code)
			}
			if env.Error.Message == "" || !strings.Contains(env.Error.Message, c.fragment) {
				t.Errorf("message %q does not contain %q", env.Error.Message, c.fragment)
			}
			if c.wantFields && len(env.Error.Fields) < 2 {
				t.Errorf("multi-error validation should itemize fields, got %v", env.Error.Fields)
			}
		})
	}
}

// TestErrorEnvelopeOverCapacityAndUnavailable covers the 429 (queue full)
// and 503 (shutdown) paths, which need server state the table above cannot
// set up statelessly.
func TestErrorEnvelopeOverCapacityAndUnavailable(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Saturate: with one worker and a one-deep queue, three long submissions
	// leave the third with nowhere to go — the 429 path.
	var body []byte
	for i, want := range []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests} {
		var resp *http.Response
		resp, body = postJSON(t, ts.URL+"/v1/jobs", longSpecJSON)
		if resp.StatusCode != want {
			t.Fatalf("submission %d: status %d, want %d: %s", i, resp.StatusCode, want, body)
		}
	}
	var env fabric.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("429 body is not the envelope: %v\n%s", err, body)
	}
	if env.Error.Code != fabric.CodeOverCapacity {
		t.Errorf("429 code %q, want %q", env.Error.Code, fabric.CodeOverCapacity)
	}

	// Shut down (force-cancel the long jobs) and assert the 503 envelope on
	// every POST surface.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = svc.Shutdown(shutdownCtx)
	for _, path := range []string{"/v1/run", "/v1/jobs", "/v1/batch"} {
		resp, body := postJSON(t, ts.URL+path, quickSpecJSON)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s after shutdown: status %d", path, resp.StatusCode)
			continue
		}
		var env fabric.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s 503 body is not the envelope: %v\n%s", path, err, body)
			continue
		}
		if env.Error.Code != fabric.CodeUnavailable {
			t.Errorf("%s 503 code %q, want %q", path, env.Error.Code, fabric.CodeUnavailable)
		}
	}
}

// TestCachedErrorKeepsTimeoutIdentity: a replayed MaxTime stop must satisfy
// errors.Is(err, hotpotato.ErrTimeout) exactly like the live error, or
// handlers would misclassify cached timeouts as internal failures.
func TestCachedErrorKeepsTimeoutIdentity(t *testing.T) {
	err := error(cachedError{msg: "sim: simulation exceeded MaxTime after 1.0 s"})
	if !errors.Is(err, hotpotato.ErrTimeout) {
		t.Error("cachedError lost the ErrTimeout identity")
	}
	if errors.Is(err, hotpotato.ErrCanceled) {
		t.Error("cachedError must not claim the ErrCanceled identity")
	}
	if err.Error() == "" {
		t.Error("cachedError lost its message")
	}
}

// TestErrorCodeMapping pins the status→code table documented in docs/API.md.
func TestErrorCodeMapping(t *testing.T) {
	want := map[int]string{
		http.StatusBadRequest:            fabric.CodeInvalidRequest,
		http.StatusNotFound:              fabric.CodeNotFound,
		http.StatusRequestEntityTooLarge: fabric.CodeTooLarge,
		http.StatusTooManyRequests:       fabric.CodeOverCapacity,
		http.StatusServiceUnavailable:    fabric.CodeUnavailable,
		http.StatusInternalServerError:   fabric.CodeInternal,
		http.StatusTeapot:                fabric.CodeInternal, // anything unmapped is internal
	}
	for status, code := range want {
		if got := fabric.ErrorCode(status); got != code {
			t.Errorf("fabric.ErrorCode(%d) = %q, want %q", status, got, code)
		}
	}
}
