package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader is the correlation header: an inbound value is honored (so
// a caller or an upstream proxy can stitch its own traces to ours) and the
// chosen ID is always echoed back on the response.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an inbound correlation ID; anything longer (or
// containing non-printable bytes, which would corrupt the log stream) is
// replaced with a generated one.
const maxRequestIDLen = 128

// newRequestID returns a fresh 16-hex-char correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a degraded ID is
		// still better than a missing one.
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts printable ASCII without spaces, bounded in length —
// enough for every sane client convention (UUIDs, hex, ULIDs) while keeping
// header-injection and log-forgery bytes out.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// requestIDCtxKey carries the request's correlation ID through its context.
type requestIDCtxKey struct{}

// requestIDFrom returns the correlation ID assigned by the middleware, or ""
// outside a request context.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDCtxKey{}).(string)
	return id
}

// statusWriter captures the status code and body size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so long-running synchronous
// responses keep streaming through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability is the request middleware: it assigns or propagates the
// correlation ID, propagates a trace context, echoes the ID on the response,
// attaches a request-scoped logger (with the request ID, and the trace ID
// when there is one) to the context, and emits exactly one structured
// access-log line per request with status, latency and byte count. Handlers and the job pipeline retrieve the logger
// with obs.LoggerFrom(ctx) so every line they emit carries the request ID.
//
// Trace context is honored, never minted: a valid inbound traceparent header
// (from any W3C-aware client) is adopted, so the request's spans and log
// lines carry the caller's trace ID; without one the request is untraced
// and its lines carry no trace_id. Handlers read it back with
// obs.TraceContextFrom(ctx).
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDCtxKey{}, id)
		logger := s.logger.With("request_id", id)
		if tc, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); ok {
			ctx = obs.ContextWithTraceContext(ctx, tc)
			logger = logger.With("trace_id", tc.TraceID)
		}
		ctx = obs.ContextWithLogger(ctx, logger)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		began := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		logger.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(time.Since(began).Nanoseconds())/1e6,
		)
	})
}
