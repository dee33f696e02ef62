package power

import "fmt"

// History is a sliding time-weighted window of power samples. HotPotato's
// Algorithm 1 uses "the power history of a thread from the last 10 ms" (§V)
// to estimate the power a rotation will impose on each core.
//
// Record is on the simulator's per-slice hot path (one call per live thread
// per slice), so the window is kept in a compacting buffer: evicted samples
// advance a head index, and a full buffer is compacted in place instead of
// growing — once the capacity covers window/duration samples, Record never
// allocates again.
type History struct {
	window  float64
	entries []sample
	head    int     // entries[head:] are the live samples, oldest first
	total   float64 // sum of durations currently held
}

type sample struct {
	duration float64
	watts    float64
}

// DefaultWindow is the paper's 10 ms history window.
const DefaultWindow = 10e-3

// NewHistory creates a history covering the most recent `window` seconds.
func NewHistory(window float64) (*History, error) {
	if window <= 0 {
		return nil, fmt.Errorf("power: history window must be positive, got %g", window)
	}
	return &History{window: window}, nil
}

// Record appends a sample of `watts` lasting `duration` seconds and evicts
// samples that have slid out of the window.
func (h *History) Record(duration, watts float64) {
	if duration <= 0 {
		return
	}
	// Reclaim the evicted prefix before append would grow the buffer.
	if len(h.entries) == cap(h.entries) && h.head > 0 {
		n := copy(h.entries, h.entries[h.head:])
		h.entries = h.entries[:n]
		h.head = 0
	}
	h.entries = append(h.entries, sample{duration, watts})
	h.total += duration
	// Evict whole samples from the front; trim the boundary sample so the
	// window is honoured exactly.
	for h.total > h.window && h.head < len(h.entries) {
		excess := h.total - h.window
		head := &h.entries[h.head]
		if head.duration <= excess {
			h.total -= head.duration
			h.head++
		} else {
			head.duration -= excess
			h.total -= excess
		}
	}
}

// Average returns the time-weighted mean power over the recorded window. If
// nothing has been recorded it returns fallback.
func (h *History) Average(fallback float64) float64 {
	if h.total <= 0 {
		return fallback
	}
	var energy float64
	for _, s := range h.entries[h.head:] {
		energy += s.duration * s.watts
	}
	return energy / h.total
}

// Span returns how many seconds of samples the history currently holds
// (at most the window NewHistory was given).
func (h *History) Span() float64 { return h.total }

// Reset discards all samples.
func (h *History) Reset() {
	h.entries = h.entries[:0]
	h.head = 0
	h.total = 0
}
