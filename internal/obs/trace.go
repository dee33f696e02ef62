package obs

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"sync"
)

// EpochEvent is one structured record per scheduler epoch — the paper's
// evaluation telemetry (§V) emitted natively by the simulator instead of
// being reconstructed from per-slice traces. The simulator fills it when it
// applies a scheduler decision and delivers it once the epoch's slice batch
// has run: Mapping/Freqs describe the epoch that executed, the temperatures
// the chip at the decision instant, and the four phases (StateNS, WallNS,
// ApplyNS, StepNS) tile the epoch's host time.
type EpochEvent struct {
	// Epoch is the 0-based scheduler invocation index.
	Epoch int `json:"epoch"`
	// Time is the simulated time of the decision, seconds.
	Time float64 `json:"time"`
	// Mapping is the thread→core assignment chosen for this epoch, keyed by
	// the "task:thread" form of a ThreadID. Unmapped (queued) threads are
	// absent.
	Mapping map[string]int `json:"mapping"`
	// Freqs is the per-core frequency in Hz after the decision (DVFS clamp
	// applied, hardware DTM throttling not — DTM acts per slice).
	Freqs []float64 `json:"freqs_hz"`
	// CoreTemps is the per-core silicon temperature in °C at the decision
	// instant (true temperatures, not the sensor-noise view).
	CoreTemps []float64 `json:"core_temps_c"`
	// CorePower is the per-core power in watts over the slice preceding the
	// decision (zero at epoch 0, before anything has executed).
	CorePower []float64 `json:"core_power_w"`
	// PeakTemp is the hottest core in CoreTemps, °C.
	PeakTemp float64 `json:"peak_temp_c"`
	// AmbientDelta is PeakTemp minus the model ambient, K — the
	// ambient-relative headroom signal Algorithm 1 reasons in.
	AmbientDelta float64 `json:"ambient_delta_k"`
	// Migrations is how many thread migrations this decision performed.
	Migrations int `json:"migrations"`
	// StateNS, WallNS, ApplyNS and StepNS are the epoch's host-time phases,
	// nanoseconds: the sensor read and scheduler-view refill, the Decide call
	// (the paper's §VI overhead metric, per decision), validating and
	// installing the decision, and the slice batch up to the next decision.
	StateNS int64 `json:"state_ns"`
	WallNS  int64 `json:"wall_ns"`
	ApplyNS int64 `json:"apply_ns"`
	StepNS  int64 `json:"step_ns"`
}

// Tracer receives one event per scheduler epoch. RecordEpoch is called on
// the goroutine driving the simulation, never concurrently with itself; a
// Tracer that is read from other goroutines (RingTracer) must synchronize
// internally. The event is borrowed: its Mapping and slices are the engine's
// buffers, refilled for the next epoch, so a Tracer copies what it keeps.
// With no Tracer attached the engine fills no event.
type Tracer interface {
	RecordEpoch(ev EpochEvent)
}

// DefaultTraceDepth is the RingTracer capacity when none is given: at the
// paper's 0.5 ms epochs it retains the last ~2 s of simulated time.
const DefaultTraceDepth = 4096

// RingTracer is a bounded ring buffer of epoch events: recording never
// blocks and never grows beyond the capacity — old epochs are overwritten,
// and Dropped reports how many. It is safe for concurrent use (the HTTP
// service reads a job's trace while the run is still recording).
type RingTracer struct {
	mu      sync.Mutex
	events  []EpochEvent
	next    int
	wrapped bool
	total   int64
}

// NewRingTracer returns a tracer retaining the last `capacity` epochs
// (capacity ≤ 0 selects DefaultTraceDepth).
func NewRingTracer(capacity int) *RingTracer {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &RingTracer{events: make([]EpochEvent, 0, capacity)}
}

// RecordEpoch implements Tracer; it keeps a copy of the borrowed event.
func (t *RingTracer) RecordEpoch(ev EpochEvent) {
	ev.Mapping = maps.Clone(ev.Mapping)
	ev.Freqs = slices.Clone(ev.Freqs)
	ev.CoreTemps = slices.Clone(ev.CoreTemps)
	ev.CorePower = slices.Clone(ev.CorePower)
	t.mu.Lock()
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, ev)
	} else {
		t.events[t.next] = ev
		t.wrapped = true
		metricTraceEventsDropped.Inc()
	}
	t.next = (t.next + 1) % cap(t.events)
	t.total++
	t.mu.Unlock()
}

// Len returns how many events are currently retained.
func (t *RingTracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Total returns how many events were ever recorded.
func (t *RingTracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by the ring.
func (t *RingTracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(len(t.events))
}

// Events returns the retained events, oldest first.
func (t *RingTracer) Events() []EpochEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EpochEvent, 0, len(t.events))
	if t.wrapped {
		out = append(out, t.events[t.next:]...)
	}
	return append(out, t.events[:t.next]...)
}

// WriteJSONL writes the retained events as JSON lines, oldest first — the
// `hotpotato-sim -trace out.jsonl` dump format.
func (t *RingTracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
