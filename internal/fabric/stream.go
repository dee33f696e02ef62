package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// TerminalRecordType is the "type" discriminator of the record that ends a
// sweep stream. Once a RecordStream has sent it, the stream is closed to
// further records: "the summary is the final record" is part of the wire
// contract clients rely on to distinguish a finished sweep from a dropped
// connection, so the writer enforces it structurally instead of trusting
// every caller's goroutine ordering.
const TerminalRecordType = "summary"

// RecordStream serializes the NDJSON (or SSE) records of one sweep stream —
// the shared writer behind the dispatcher's and hotpotato-server's
// POST /v1/batch. Every record is flushed immediately: the whole point of
// the endpoint is that cell results arrive as they finish, not at the end.
//
// Both /v1/batch handlers send only through StreamSweep, from one goroutine.
// Send is still safe for concurrent use, and the terminal rule above is
// enforced under the same lock, so no record can follow the summary even if
// a later caller adds a second sender.
type RecordStream struct {
	mu       sync.Mutex
	w        http.ResponseWriter
	f        http.Flusher
	sse      bool
	terminal bool
	dropped  int64
	// onDrop observes every record the stream refused to write (marshal
	// failure, or a record after the terminal summary). nil means drops are
	// only counted.
	onDrop func(typ, reason string)
}

// NewRecordStream wraps w as a sweep record stream and writes the response
// headers: application/x-ndjson framing by default, text/event-stream when
// sse is set. onDrop (may be nil) observes refused records — callers log and
// count them so a silently thinner stream is visible in operation.
func NewRecordStream(w http.ResponseWriter, sse bool, onDrop func(typ, reason string)) *RecordStream {
	f, _ := w.(http.Flusher)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	return &RecordStream{w: w, f: f, sse: sse, onDrop: onDrop}
}

// SSE reports whether the stream uses Server-Sent Events framing.
func (s *RecordStream) SSE() bool { return s.sse }

// Send writes one record and flushes it. typ is the SSE event name; NDJSON
// carries the same discriminator inside the record's "type" field. Sending
// TerminalRecordType seals the stream: any later Send is dropped (counted,
// reported to onDrop) instead of corrupting the documented summary-last
// ordering. A record whose body fails to marshal is likewise dropped rather
// than silently skipped. Send reports whether the record went out.
func (s *RecordStream) Send(typ string, rec any) bool {
	body, err := json.Marshal(rec)
	if err != nil {
		s.drop(typ, fmt.Sprintf("marshal: %v", err))
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.terminal {
		s.droppedLocked(typ, "record after terminal summary")
		return false
	}
	if typ == TerminalRecordType {
		s.terminal = true
	}
	if s.sse {
		fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", typ, body)
	} else {
		s.w.Write(body)
		s.w.Write([]byte("\n"))
	}
	if s.f != nil {
		s.f.Flush()
	}
	return true
}

// Dropped returns how many records the stream refused to write.
func (s *RecordStream) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *RecordStream) drop(typ, reason string) {
	s.mu.Lock()
	s.droppedLocked(typ, reason)
	s.mu.Unlock()
}

// droppedLocked counts (and reports) one refused record; callers hold mu.
func (s *RecordStream) droppedLocked(typ, reason string) {
	s.dropped++
	if s.onDrop != nil {
		s.onDrop(typ, reason)
	}
}
