package obs

import (
	"context"
	"fmt"
)

// tracecontext.go is the cross-process half of the span tracer: a
// dependency-free trace context in the shape of a W3C `traceparent` header
// (version 00, sampled flag always 01), so a sweep that fans out across the
// fabric keeps one trace identity from the dispatcher's sweep span down to
// every worker's execute_spec span. Only the subset the fleet needs is
// implemented — parse, format, context plumbing — not the full W3C state
// machine; unknown versions and malformed headers are simply ignored. Nothing
// here mints a trace ID: a trace exists only when a client sent one.

// TraceParentHeader is the HTTP header carrying a TraceContext, shaped like
// W3C trace-context: "00-<32 hex trace id>-<16 hex parent span id>-01".
const TraceParentHeader = "traceparent"

// TraceContext identifies the position of a process in a distributed trace:
// the trace every span belongs to, plus the span ID the next child should
// parent under. The zero value is "no trace" (Valid() == false).
type TraceContext struct {
	// TraceID is the 32-lowercase-hex fleet-wide trace identity, shared by
	// every process that works on one sweep or request.
	TraceID string
	// SpanID is the 16-lowercase-hex ID of the span that spawned this hop —
	// remote children record it as their logical parent.
	SpanID string
}

// Valid reports whether both fields are well-formed (and the trace ID is not
// all zeros, which W3C reserves for "no trace").
func (tc TraceContext) Valid() bool {
	return isLowerHex(tc.TraceID, 32) && isLowerHex(tc.SpanID, 16) &&
		tc.TraceID != "00000000000000000000000000000000"
}

// Header renders the context as a traceparent header value. Invalid contexts
// render as "" so callers can set the header unconditionally.
func (tc TraceContext) Header() string {
	if !tc.Valid() {
		return ""
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// Child returns the context a span within this trace should hand to ITS
// remote children: same trace, the given local span as parent.
func (tc TraceContext) Child(span SpanID) TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: SpanIDHex(span)}
}

// SpanIDHex renders a recorder-local SpanID in the 16-hex wire form used by
// TraceContext. Local IDs are small sequential integers, so the encoding is
// zero-padded rather than random — uniqueness across processes comes from
// the trace ID, not the span ID.
func SpanIDHex(id SpanID) string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceParent parses a traceparent header value. Only version 00 with
// lowercase hex fields is accepted; anything else returns ok == false (the
// caller runs the request untraced instead of failing it).
func ParseTraceParent(s string) (TraceContext, bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2 flag chars.
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !isLowerHex(s[53:55], 2) || !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceCtxKey carries the current TraceContext through a context.Context.
type traceCtxKey struct{}

// ContextWithTraceContext returns a context carrying tc. An invalid tc
// returns ctx unchanged.
func ContextWithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom returns the context's TraceContext, or the zero value
// (Valid() == false) when the context is uninstrumented.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}
