package fabric

import (
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// fleet.go is the dispatcher half of metrics federation. Workers piggyback
// their metric movements on heartbeats (HeartbeatRequest.Counters carries
// deltas since the previous heartbeat, .Gauges carries absolute values); the
// dispatcher folds them into fleet_<name> aggregates on its own registry, so
// one /metrics scrape of the dispatcher answers "what is the whole fleet
// doing" without scraping every worker.
//
// Counters fold additively (sum of deltas across all workers and restarts);
// gauges fold as the sum of each worker's latest value. Histograms are not
// federated — cumulative buckets only merge across processes when every
// process uses identical bounds, a coupling the wire should not assume.
//
// The fleet_* metric families are created lazily (worker sets evolve), which
// is the one place the registry's register-at-init discipline is relaxed;
// the fold path still only touches pre-resolved handles from a map, never
// the hot loop. The fold state is process-global, like the registry itself:
// two dispatchers in one process (tests) share the fleet_* series.

// maxFleetSeries bounds how many distinct fleet_* series a fleet can create
// — a misbehaving worker must not be able to grow /metrics without bound.
// Overflow is counted in fabric_fleet_series_dropped_total.
const maxFleetSeries = 512

var (
	fleetMu       sync.Mutex
	fleetCounters = map[string]*obs.Counter{}
	fleetGauges   = map[string]*obs.Gauge{}
)

// validMetricName matches the Prometheus metric-name charset; anything else
// from the wire is dropped (a worker should never be able to break the
// dispatcher's exposition format).
func validMetricName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// federates reports whether a worker metric name may become a fleet_<name>
// series: a valid metric name outside the dispatcher's own families. The
// fleet_* totals and the fabric_* series are declared in this package and
// describe a dispatcher, not a worker; a worker sharing the dispatcher's
// process registry would otherwise send them back as fleet_fleet_* and
// fleet_fabric_* echoes, each heartbeat nesting one prefix deeper until the
// series budget is spent.
func federates(name string) bool {
	return !strings.HasPrefix(name, "fleet_") && !strings.HasPrefix(name, "fabric_") &&
		validMetricName(name)
}

// addFleetCounter adds delta to the fleet counter for a worker metric name,
// lazily creating it, and saturates at math.MaxInt64 instead of wrapping
// negative. A name that does not federate, is already a fleet gauge, or
// would overrun the series budget drops the delta.
func addFleetCounter(name string, delta int64) {
	if !federates(name) {
		metricFleetSeriesDropped.Inc()
		return
	}
	fleetMu.Lock()
	defer fleetMu.Unlock()
	c, ok := fleetCounters[name]
	if !ok {
		// fleet_<name> is one registry series: a name already folded as a
		// gauge cannot also become a counter.
		if _, gauge := fleetGauges[name]; gauge || len(fleetCounters)+len(fleetGauges) >= maxFleetSeries {
			metricFleetSeriesDropped.Inc()
			return
		}
		c = obs.NewCounter("fleet_"+name, "Fleet-federated sum of the workers' "+name+" counter.")
		fleetCounters[name] = c
	}
	c.Add(min(delta, math.MaxInt64-c.Value()))
}

// fleetGauge resolves (lazily creating) the fleet gauge for a worker metric
// name; nil (counted as dropped) for a name that does not federate, is
// already a fleet counter, or would overrun the series budget.
func fleetGauge(name string) *obs.Gauge {
	if !federates(name) {
		metricFleetSeriesDropped.Inc()
		return nil
	}
	fleetMu.Lock()
	defer fleetMu.Unlock()
	if g, ok := fleetGauges[name]; ok {
		return g
	}
	if _, counter := fleetCounters[name]; counter || len(fleetCounters)+len(fleetGauges) >= maxFleetSeries {
		metricFleetSeriesDropped.Inc()
		return nil
	}
	g := obs.NewGauge("fleet_"+name, "Fleet-federated sum of the workers' latest "+name+" gauge values.")
	fleetGauges[name] = g
	return g
}

// FoldTelemetry folds one worker's heartbeat telemetry into the fleet
// aggregates and refreshes the worker's liveness. Counter deltas add to
// fleet counters from any worker, listed or not: they keep no per-worker
// state, so the fold is restart-safe and a worker's final flush after its
// lease ended still counts. Negative counter deltas are dropped (a counter
// that went backwards is a worker bug, not a fleet signal), and a counter
// saturates at math.MaxInt64 instead of wrapping negative. Gauge values fold
// only for a worker on the roster: they replace its previous contribution,
// and each fleet gauge becomes the sum across this dispatcher's workers.
func (d *Dispatcher) FoldTelemetry(workerID string, counters map[string]int64, gauges map[string]float64) {
	for name, delta := range counters {
		if delta > 0 {
			addFleetCounter(name, delta)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.seeWorkerLocked(workerID, d.clock.Now())
	if w == nil || len(gauges) == 0 {
		return
	}
	if w.gauges == nil {
		w.gauges = make(map[string]float64, len(gauges))
	}
	for name, v := range gauges {
		// fleetGauge refuses (and counts) the names that cannot fold.
		if fleetGauge(name) != nil {
			w.gauges[name] = v
		}
	}
	d.sumFleetGaugesLocked(w.gauges)
}

// sumFleetGaugesLocked sets the fleet gauge of every name in names to the
// sum of the listed workers' latest values. Callers hold d.mu.
func (d *Dispatcher) sumFleetGaugesLocked(names map[string]float64) {
	for name := range names {
		sum := 0.0
		for _, w := range d.workers {
			sum += w.gauges[name]
		}
		fleetGauge(name).Set(sum)
	}
}

// FleetCounters snapshots the folded fleet counter values by worker metric
// name (without the fleet_ prefix) — the /healthz federation section.
func FleetCounters() map[string]int64 {
	fleetMu.Lock()
	defer fleetMu.Unlock()
	out := make(map[string]int64, len(fleetCounters))
	for name, c := range fleetCounters {
		out[name] = c.Value()
	}
	return out
}

// fleetCounterNames returns the federated counter names, sorted (tests).
func fleetCounterNames() []string {
	fleetMu.Lock()
	defer fleetMu.Unlock()
	names := make([]string, 0, len(fleetCounters))
	for name := range fleetCounters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
