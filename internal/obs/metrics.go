// Package obs is the reproduction's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) and a
// per-scheduler-epoch tracer, shared by the simulation engine, the
// schedulers, the rotation evaluator, and the HTTP service.
//
// Design constraints, in order:
//
//   - The simulator's slice loop and the rotation ring scan are zero-alloc
//     hot paths (docs/PERFORMANCE.md). Every metric operation — Counter.Add,
//     Gauge.Set, Histogram.Observe — is a handful of atomic instructions and
//     never allocates; instrumented packages hold pre-registered *Counter /
//     *Gauge / *Histogram handles in package-level variables so the hot path
//     performs no registry lookups and no interface calls.
//   - No dependencies: exposition is hand-rolled Prometheus text format
//     (version 0.0.4) reading the atomics directly.
//   - Metrics are process-global by default (the Default registry), matching
//     net/http/pprof: one process serves one /metrics page.
//
// See docs/OBSERVABILITY.md for the metric inventory.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain one from Registry.NewCounter (or the package-level NewCounter).
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1. Allocation-free and safe for concurrent use.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay meaningful as a
// counter; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is unusable; obtain one from Registry.NewGauge.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v. Allocation-free and safe for concurrent use.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the rest. The zero
// value is unusable; obtain one from Registry.NewHistogram.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records v. Allocation-free and safe for concurrent use; the bucket
// scan is linear, which beats binary search at the ≤16 buckets used here.
func (h *Histogram) Observe(v float64) {
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and the cumulative count at each bound
// (Prometheus le semantics), ending with the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	cumulative = make([]int64, len(bounds))
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	cumulative[len(bounds)-1] = cum + h.inf.Load()
	return bounds, cumulative
}

// DefLatencyBuckets are the default request-latency bounds in seconds,
// spanning sub-millisecond spec validation to multi-minute simulations.
var DefLatencyBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30, 60, 300,
}

// Registry holds named metrics. Registration is rare (package init);
// observation is constant-time on pre-registered handles. A Registry is safe
// for concurrent use.
type Registry struct {
	mu         sync.Mutex
	names      map[string]bool
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
}

// NewRegistry returns an empty registry. Most code uses Default instead.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry that /metrics serves.
func Default() *Registry { return defaultRegistry }

func (r *Registry) claim(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
}

// NewCounter registers and returns a counter. Duplicate names panic —
// registration happens at package init, where a duplicate is a bug.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.claim(name)
	c := &Counter{name: name, help: help}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.claim(name)
	g := &Gauge{name: name, help: help}
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
	return g
}

// NewHistogram registers and returns a histogram with the given ascending
// upper bounds (nil means DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	r.claim(name)
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
	r.mu.Lock()
	r.histograms = append(r.histograms, h)
	r.mu.Unlock()
	return h
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// snapshotLists copies the metric handle slices under the lock; the handles
// themselves are read with atomics afterwards.
func (r *Registry) snapshotLists() (cs []*Counter, gs []*Gauge, hs []*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(cs, r.counters...), append(gs, r.gauges...), append(hs, r.histograms...)
}

// WritePrometheus renders every metric in Prometheus text exposition format
// (version 0.0.4), sorted by name so the output is diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	cs, gs, hs := r.snapshotLists()
	type row struct {
		name  string
		write func(io.Writer) error
	}
	rows := make([]row, 0, len(cs)+len(gs)+len(hs))
	for _, c := range cs {
		c := c
		rows = append(rows, row{c.name, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				c.name, c.help, c.name, c.name, c.Value())
			return err
		}})
	}
	for _, g := range gs {
		g := g
		rows = append(rows, row{g.name, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
				g.name, g.help, g.name, g.name, promFloat(g.Value()))
			return err
		}})
	}
	for _, h := range hs {
		h := h
		rows = append(rows, row{h.name, func(w io.Writer) error {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
				return err
			}
			bounds, cum := h.Buckets()
			for i, b := range bounds {
				le := promFloat(b)
				if math.IsInf(b, 1) {
					le = "+Inf"
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum[i]); err != nil {
					return err
				}
			}
			_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				h.name, promFloat(h.Sum()), h.name, h.Count())
			return err
		}})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].name < rows[b].name })
	for _, row := range rows {
		if err := row.write(w); err != nil {
			return err
		}
	}
	return nil
}

// promFloat renders a float the way Prometheus expects (no exponent for
// common values, NaN/Inf spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Values snapshots every counter and gauge value by name — the federation
// payload a fabric worker diffs between heartbeats. Histograms are excluded:
// their cumulative buckets do not fold additively across processes without
// identical bounds, so federation carries scalars only.
func (r *Registry) Values() (counters map[string]int64, gauges map[string]float64) {
	cs, gs, _ := r.snapshotLists()
	counters = make(map[string]int64, len(cs))
	for _, c := range cs {
		counters[c.name] = c.Value()
	}
	gauges = make(map[string]float64, len(gs))
	for _, g := range gs {
		gauges[g.name] = g.Value()
	}
	return counters, gauges
}
