package fabric_test

// promlint_test.go is a promlint-style golden gate over the FULL process
// registry: this package links internal/service (twin_* and service_*
// metrics), internal/fabric (fabric_* plus lazily created fleet_* federation
// series) and, transitively, the sim/sched/rotation instruments — so the
// exposition checked here is the one a real dispatcher or server actually
// serves. Every family must carry # HELP and # TYPE, histograms must end in
// a +Inf bucket consistent with _count, and the registry must refuse
// duplicate names.

import (
	"bufio"
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	_ "repro/internal/service" // register the service and twin metrics
)

// promFamily is one parsed exposition block: # HELP, # TYPE, samples.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	name  string // full sample name, suffixes included
	le    string // the le label for _bucket samples, "" otherwise
	value float64
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]*)"\})? (\S+)$`)

// parseExposition splits Prometheus 0.0.4 text into families, failing the
// test on any line that is neither a well-formed comment nor a sample.
func parseExposition(t *testing.T, text string) []promFamily {
	t.Helper()
	var fams []promFamily
	cur := -1
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			fams = append(fams, promFamily{name: name, help: help})
			cur = len(fams) - 1
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if cur < 0 || fams[cur].name != fields[0] {
				t.Fatalf("# TYPE %s not immediately preceded by its # HELP", fields[0])
			}
			fams[cur].typ = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unrecognized comment line %q", line)
		case strings.TrimSpace(line) == "":
			t.Fatalf("blank line in exposition")
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line %q", line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			if cur < 0 || !strings.HasPrefix(m[1], fams[cur].name) {
				t.Fatalf("sample %q outside its family block (current %q)", m[1], famName(fams, cur))
			}
			fams[cur].samples = append(fams[cur].samples, promSample{name: m[1], le: m[2], value: v})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

func famName(fams []promFamily, i int) string {
	if i < 0 {
		return "<none>"
	}
	return fams[i].name
}

func TestPrometheusExpositionLint(t *testing.T) {
	// Materialize at least one federated counter and gauge so the lint covers
	// the lazily created fleet_* series too. Gauges fold only for a worker on
	// the roster, which leasing joins.
	d := fabric.NewDispatcher(fabric.Config{LeaseTTL: time.Second})
	d.Lease("lint-worker", 1)
	d.FoldTelemetry("lint-worker",
		map[string]int64{"promlint_probe_total": 3},
		map[string]float64{"promlint_probe_depth": 2})

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, buf.String())
	if len(fams) == 0 {
		t.Fatal("empty exposition")
	}

	validName := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	seen := map[string]bool{}
	prev := ""
	for _, f := range fams {
		if f.name <= prev {
			t.Errorf("family %q out of sorted order (after %q)", f.name, prev)
		}
		prev = f.name
		if seen[f.name] {
			t.Errorf("family %q declared twice", f.name)
		}
		seen[f.name] = true
		if !validName.MatchString(f.name) {
			t.Errorf("family name %q is not a valid metric name", f.name)
		}
		if strings.TrimSpace(f.help) == "" {
			t.Errorf("family %q has no # HELP text", f.name)
		}
		switch f.typ {
		case "counter", "gauge":
			if len(f.samples) != 1 || f.samples[0].name != f.name {
				t.Errorf("%s %q: want exactly one sample named %q, got %+v", f.typ, f.name, f.name, f.samples)
				continue
			}
			if f.typ == "counter" && f.samples[0].value < 0 {
				t.Errorf("counter %q is negative: %g", f.name, f.samples[0].value)
			}
		case "histogram":
			lintHistogram(t, f)
		default:
			t.Errorf("family %q has missing or unknown # TYPE %q", f.name, f.typ)
		}
	}

	// The families this PR is about must actually be on the page.
	for _, want := range []string{
		"twin_residual", "twin_drift_checks_total", "twin_bound_violations_total",
		"fleet_promlint_probe_total", "fleet_promlint_probe_depth",
		"fabric_spans_grafted_total", "fabric_fleet_series_dropped_total",
		"obs_spans_dropped_total", "obs_trace_events_dropped_total",
		"sim_runs_total", "service_run_requests_total",
	} {
		if !seen[want] {
			t.Errorf("expected family %q missing from the exposition", want)
		}
	}
}

// lintHistogram checks one histogram family: cumulative non-decreasing
// buckets ending at le="+Inf", whose count equals the _count sample, plus a
// _sum sample.
func lintHistogram(t *testing.T, f promFamily) {
	t.Helper()
	var buckets []promSample
	var sum, count *promSample
	for i := range f.samples {
		s := f.samples[i]
		switch s.name {
		case f.name + "_bucket":
			buckets = append(buckets, s)
		case f.name + "_sum":
			sum = &f.samples[i]
		case f.name + "_count":
			count = &f.samples[i]
		default:
			t.Errorf("histogram %q has stray sample %q", f.name, s.name)
		}
	}
	if len(buckets) == 0 || sum == nil || count == nil {
		t.Errorf("histogram %q incomplete: %d buckets, sum %v, count %v", f.name, len(buckets), sum != nil, count != nil)
		return
	}
	if last := buckets[len(buckets)-1]; last.le != "+Inf" {
		t.Errorf("histogram %q last bucket le=%q, want +Inf", f.name, last.le)
	} else if last.value != count.value {
		t.Errorf("histogram %q +Inf bucket %g != _count %g", f.name, last.value, count.value)
	}
	prevBound := math.Inf(-1)
	prevCum := -1.0
	for _, b := range buckets {
		bound := math.Inf(1)
		if b.le != "+Inf" {
			v, err := strconv.ParseFloat(b.le, 64)
			if err != nil {
				t.Errorf("histogram %q bucket le=%q unparseable", f.name, b.le)
				continue
			}
			bound = v
		}
		if bound <= prevBound {
			t.Errorf("histogram %q bucket bounds not ascending at le=%q", f.name, b.le)
		}
		prevBound = bound
		if b.value < prevCum {
			t.Errorf("histogram %q cumulative counts decrease at le=%q", f.name, b.le)
		}
		prevCum = b.value
	}
}

// TestRegistryRefusesDuplicateNames: the register-at-init discipline depends
// on the duplicate panic actually firing — against the full, post-fleet
// registry, re-claiming any live name must panic.
func TestRegistryRefusesDuplicateNames(t *testing.T) {
	for _, name := range []string{"fabric_sweeps_total", "twin_residual", "fleet_promlint_probe_total"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registering %q did not panic", name)
				}
			}()
			obs.NewCounter(name, "duplicate")
		}()
	}
}
