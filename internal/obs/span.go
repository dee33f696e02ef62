package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span.go is the hierarchical span tracer: dependency-free wall-clock phase
// timing for one run (service request → queue wait → platform build →
// ExecuteSpec → one span per epoch), recorded into a bounded in-memory
// SpanRecorder and exported as a JSON tree (GET /v1/jobs/{id}/spans) or JSON
// Lines (hotpotato-sim -spans). The granularity contract matches the epoch
// tracer: one span per scheduler epoch at most, never one per slice, so the
// simulator's slice loop stays allocation-free.
//
// Every Span method and SpanRecorder.Start are nil-safe: a nil recorder
// starts nil spans, and a nil *Span silently ignores StartChild / SetAttr /
// SetError / End. Uninstrumented code paths therefore cost one nil check,
// with no conditional plumbing at the call sites.

// SpanID identifies a span within one SpanRecorder. IDs are assigned
// sequentially from 1; 0 means "no span" (the parent of a root).
type SpanID int64

// DefaultSpanDepth is the SpanRecorder capacity when none is given. A span
// per scheduler epoch at the paper's 0.5 ms cadence makes this ~4 s of
// simulated time plus the handful of service-phase spans.
const DefaultSpanDepth = 8192

// Span is one live timed phase. Spans are created by SpanRecorder.Start or
// Span.StartChild, annotated with SetAttr/SetError, and closed with End.
// A Span is safe for concurrent use; in practice one goroutine writes it
// while the recorder snapshots it from another (the HTTP service reads a
// job's spans mid-run).
type Span struct {
	rec    *SpanRecorder
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	errs  string
	dur   time.Duration
	ended bool
}

// ID returns the span's recorder-scoped ID (0 for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// StartChild starts a new span under s. Nil-safe: a nil s returns nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.add(&Span{rec: s.rec, parent: s.id, name: name, start: time.Now()})
}

// SetAttr attaches one key-value annotation. Nil-safe. Values should be
// JSON-encodable plain data (numbers, strings, bools).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetError flags the span as failed with err's message. A nil s or nil err
// is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errs = err.Error()
	s.mu.Unlock()
}

// End closes the span, fixing its duration. Nil-safe and idempotent — the
// first End wins, so `defer span.End()` composes with explicit early Ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// RecordEpoch implements Tracer: it records one finished "epoch" child of s
// whose duration is the sum of the event's phases, ending now. The span is
// kept by column in the recorder's open EpochRun (no Span, no attribute
// map); Records expands it back into an ordinary record. Nil-safe.
func (s *Span) RecordEpoch(ev EpochEvent) {
	if s == nil {
		return
	}
	dur := ev.StateNS + ev.WallNS + ev.ApplyNS + ev.StepNS
	s.rec.addEpoch(s.id, time.Now().UnixNano()-dur, dur, ev)
}

// record snapshots the span. An un-ended span reports its running duration
// and Done=false, so mid-run readers see live phase timings.
func (s *Span) record() SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := SpanRecord{
		ID:          s.id,
		Parent:      s.parent,
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  s.dur.Nanoseconds(),
		Done:        s.ended,
		Error:       s.errs,
	}
	if !s.ended {
		r.DurationNS = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		r.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			r.Attrs[k] = v
		}
	}
	return r
}

// SpanRecord is the exported plain-data view of one span — the JSONL line
// format of `hotpotato-sim -spans` and the node payload of the span tree.
type SpanRecord struct {
	ID          SpanID         `json:"id"`
	Parent      SpanID         `json:"parent,omitempty"`
	Name        string         `json:"name"`
	StartUnixNS int64          `json:"start_unix_ns"`
	DurationNS  int64          `json:"duration_ns"`
	Done        bool           `json:"done"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// Duration returns the recorded duration as a time.Duration.
func (r SpanRecord) Duration() time.Duration { return time.Duration(r.DurationNS) }

// SpanNode is one node of the span tree: a record plus its children, in
// start order.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanRecorder collects the spans of one run into a bounded in-memory store.
// Recording is cheap (one mutex-guarded append per span, at most one span
// per scheduler epoch) and never blocks on readers; once the capacity is
// reached further spans are counted as dropped but still function as live
// Spans — their timings simply are not retained. Epoch spans are kept by
// column in EpochRuns, every other span as a *Span. Safe for concurrent use.
type SpanRecorder struct {
	mu       sync.Mutex
	spans    []*Span
	runs     []EpochRun // local epoch spans; At indexes spans
	grafted  []SpanRecord
	gruns    []EpochRun // grafted epoch spans; At indexes grafted
	capacity int
	kept     int
	nextID   SpanID
	dropped  int64
}

// NewSpanRecorder returns a recorder retaining up to `capacity` spans
// (capacity ≤ 0 selects DefaultSpanDepth).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanDepth
	}
	return &SpanRecorder{capacity: capacity}
}

// Start begins a new root span. Nil-safe: a nil recorder returns a nil span,
// and every operation on that span is a no-op.
func (r *SpanRecorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	return r.add(&Span{rec: r, name: name, start: time.Now()})
}

// add numbers s and retains it if the capacity allows.
func (r *SpanRecorder) add(s *Span) *Span {
	r.mu.Lock()
	r.nextID++
	s.id = r.nextID
	if r.keep() {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	return s
}

// addEpoch numbers one finished epoch span under parent and, if the
// capacity allows, appends it to the open run: the last run, when it has the
// same parent and ends at the previous ID (every span takes an ID, so no
// other span came between). Otherwise it opens a new run.
func (r *SpanRecorder) addEpoch(parent SpanID, start, dur int64, ev EpochEvent) {
	r.mu.Lock()
	r.nextID++
	if r.keep() {
		n := len(r.runs)
		if n == 0 || r.runs[n-1].Parent != parent || r.runs[n-1].First+SpanID(r.runs[n-1].Len()) != r.nextID {
			r.runs = append(r.runs, EpochRun{At: len(r.spans), Parent: parent, First: r.nextID})
			n++
		}
		r.runs[n-1].append(start, dur, ev.Epoch, ev.Time, ev.WallNS, ev.Migrations)
	}
	r.mu.Unlock()
}

// keep claims one slot of the capacity, or counts a drop when none is left.
// Callers hold r.mu.
func (r *SpanRecorder) keep() bool {
	if r.kept < r.capacity {
		r.kept++
		return true
	}
	r.dropped++
	metricSpansDropped.Inc()
	return false
}

// Graft imports a span batch exported by another process's recorder in
// export form (Export: records plus epoch runs, each run placed before
// records[At]) — the dispatcher-side merge of a worker's per-cell spans; a
// batch from an older worker carries its epoch spans as records and no
// runs. Every span is re-numbered into r's own ID space in batch order
// (remote recorders all count from 1, so raw IDs would collide), and runs
// stay by column. Parent links within the batch are preserved; batch roots,
// the spans whose parent is not in the batch, become children of `parent`
// (0 grafts them as additional roots) and also get the rootAttrs. A run
// whose parent is not in the batch is grafted as records, so that its spans
// can carry them. A malformed run (see EpochRun) is not grafted: its spans
// count as dropped, without IDs. Grafted spans count against the recorder's
// capacity and the overflow against Dropped. Returns how many spans were
// retained and how many runs were rejected.
func (r *SpanRecorder) Graft(parent SpanID, rootAttrs map[string]any, records []SpanRecord, runs []EpochRun) (kept, rejected int) {
	if r == nil || len(records)+len(runs) == 0 {
		return 0, 0
	}
	runs, bad := validRuns(records, runs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, run := range bad {
		n := int64(run.maxLen())
		r.dropped += n
		metricSpansDropped.Add(n)
	}

	// Number the batch in order: records one by one, each run as a block.
	remap := make(map[SpanID]SpanID, len(records))
	first := make([]SpanID, len(runs))
	eachInOrder(len(records), runs, func(i int) {
		r.nextID++
		remap[records[i].ID] = r.nextID
	}, func(j int) {
		first[j] = r.nextID + 1
		r.nextID += SpanID(runs[j].Len())
	})
	lookup := func(id SpanID) (SpanID, bool) {
		if id == 0 {
			return 0, false
		}
		if mapped, ok := remap[id]; ok {
			return mapped, true
		}
		if j := findRun(runs, id); j >= 0 {
			return first[j] + id - runs[j].First, true
		}
		return 0, false
	}
	graftRecord := func(rec SpanRecord, id SpanID) {
		if !r.keep() {
			return
		}
		rec.ID = id
		mapped, inBatch := lookup(rec.Parent)
		if inBatch {
			rec.Parent = mapped
		} else {
			rec.Parent = parent
		}
		if rec.Attrs != nil || (!inBatch && len(rootAttrs) > 0) { // records share the caller's maps; copy before keeping
			attrs := make(map[string]any, len(rec.Attrs)+len(rootAttrs))
			for k, v := range rec.Attrs {
				attrs[k] = v
			}
			if !inBatch {
				for k, v := range rootAttrs {
					attrs[k] = v
				}
			}
			rec.Attrs = attrs
		}
		r.grafted = append(r.grafted, rec)
		kept++
	}
	eachInOrder(len(records), runs, func(i int) {
		graftRecord(records[i], remap[records[i].ID])
	}, func(j int) {
		run := &runs[j]
		mapped, inBatch := lookup(run.Parent)
		if !inBatch { // batch roots: grafted as records, with the rootAttrs
			for k := range run.Len() {
				graftRecord(run.record(k), first[j]+SpanID(k))
			}
			return
		}
		n := min(run.Len(), r.capacity-r.kept)
		r.kept += n
		kept += n
		if drop := int64(run.Len() - n); drop > 0 {
			r.dropped += drop
			metricSpansDropped.Add(drop)
		}
		if n > 0 {
			r.gruns = append(r.gruns, run.clone(len(r.grafted), mapped, first[j], n))
		}
	})
	return kept, len(bad)
}

// Len returns how many spans are retained.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kept
}

// Total returns how many spans were ever started.
func (r *SpanRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.nextID)
}

// Dropped returns how many spans exceeded the capacity and were not retained.
func (r *SpanRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Export snapshots every retained span in export form: the records of all
// spans but the epoch spans, and the epoch spans as runs by column, each
// placed before records[At]. Expanding the runs in place gives Records.
// The runs share their columns with the recorder; callers must not modify
// them.
func (r *SpanRecorder) Export() ([]SpanRecord, []EpochRun) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	spans := append([]*Span(nil), r.spans...)
	grafted := append([]SpanRecord(nil), r.grafted...)
	runs := make([]EpochRun, 0, len(r.runs)+len(r.gruns))
	runs = append(runs, r.runs...)
	for _, run := range r.gruns {
		run.At += len(spans)
		runs = append(runs, run)
	}
	r.mu.Unlock()
	records := make([]SpanRecord, len(spans), len(spans)+len(grafted))
	for i, s := range spans {
		records[i] = s.record()
	}
	return append(records, grafted...), runs
}

// Records snapshots every retained span in start order (grafted remote
// records follow the local spans, in graft order). Un-ended spans report
// their running duration with Done=false.
func (r *SpanRecorder) Records() []SpanRecord {
	if r == nil {
		return nil
	}
	records, runs := r.Export()
	out := make([]SpanRecord, 0, len(records)+totalLen(runs))
	eachInOrder(len(records), runs, func(i int) {
		out = append(out, records[i])
	}, func(j int) {
		for k := range runs[j].Len() {
			out = append(out, runs[j].record(k))
		}
	})
	return out
}

// Tree assembles the retained spans into their hierarchy, children in start
// order. Spans whose parent was dropped by the capacity bound surface as
// additional roots rather than disappearing.
func (r *SpanRecorder) Tree() []*SpanNode {
	records := r.Records()
	nodes := make(map[SpanID]*SpanNode, len(records))
	for _, rec := range records {
		nodes[rec.ID] = &SpanNode{SpanRecord: rec}
	}
	var roots []*SpanNode
	for _, rec := range records { // records are in start order; so are children
		n := nodes[rec.ID]
		if parent, ok := nodes[rec.Parent]; ok && rec.Parent != rec.ID {
			parent.Children = append(parent.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	return roots
}

// WriteJSONL writes every retained span as one JSON line in start order —
// the `hotpotato-sim -spans out.jsonl` dump format.
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// spanCtxKey carries the current *Span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the current span; child
// phases started via StartSpan (or Span.StartChild on the extracted span)
// nest under it. A nil s returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when the context is
// uninstrumented. The nil result is usable: all Span methods no-op on nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's current span and returns a
// context carrying the child. On an uninstrumented context it returns
// (ctx, nil) — the caller unconditionally defers span.End().
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}
