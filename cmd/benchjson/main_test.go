package main

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/thermal
cpu: AMD EPYC 7B13
BenchmarkHotloopStepAlloc-8   	   21862	     54093 ns/op	    4424 B/op	       4 allocs/op
BenchmarkHotloopStepTo-8      	   22832	     52205 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/thermal	3.456s
pkg: repro
BenchmarkHotloopSweep-8   	       1	1234567890 ns/op	     99.5 peak_speedup_%	 1000 B/op	      10 allocs/op
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Errorf("context = %q/%q/%q", doc.GOOS, doc.GOARCH, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[1]
	if b.Name != "HotloopStepTo" || b.Procs != 8 || b.Package != "repro/internal/thermal" {
		t.Errorf("benchmark = %+v", b)
	}
	if b.Iterations != 22832 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	for unit, want := range map[string]float64{"ns/op": 52205, "B/op": 0, "allocs/op": 0} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("%s = %v, want %v", unit, got, want)
		}
	}
	if got := doc.Benchmarks[2].Metrics["peak_speedup_%"]; got != 99.5 {
		t.Errorf("extra metric = %v, want 99.5", got)
	}
	if doc.Benchmarks[2].Package != "repro" {
		t.Errorf("package tracking broke: %q", doc.Benchmarks[2].Package)
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken",
		"BenchmarkBroken-8 not-a-number 5 ns/op",
		"BenchmarkNoPairs-8 100 alpha beta",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestParseBenchLineTolerance covers the loosened parsing rules: dashes in
// sub-benchmark names, missing -benchmem columns, and stray tokens that used
// to discard the entire line.
func TestParseBenchLineTolerance(t *testing.T) {
	cases := []struct {
		line    string
		name    string
		procs   int
		iter    int64
		metrics map[string]float64
	}{
		{
			line:    "BenchmarkEvaluate/ring-scope-l1-8 5000 240113 ns/op",
			name:    "Evaluate/ring-scope-l1",
			procs:   8,
			iter:    5000,
			metrics: map[string]float64{"ns/op": 240113},
		},
		{
			line:    "BenchmarkHotloopStepTo-8 22832 52205 ns/op",
			name:    "HotloopStepTo",
			procs:   8,
			iter:    22832,
			metrics: map[string]float64{"ns/op": 52205},
		},
		{
			line:    "BenchmarkOdd-8 100 5 ns/op trailing",
			name:    "Odd",
			procs:   8,
			iter:    100,
			metrics: map[string]float64{"ns/op": 5},
		},
		{
			line:    "BenchmarkStray-8 100 ??? 5 ns/op 12 B/op",
			name:    "Stray",
			procs:   8,
			iter:    100,
			metrics: map[string]float64{"ns/op": 5, "B/op": 12},
		},
		{
			line:    "BenchmarkBare-8 100 7 3 ns/op",
			name:    "Bare",
			procs:   8,
			iter:    100,
			metrics: map[string]float64{"ns/op": 3},
		},
	}
	for _, tc := range cases {
		b, ok := parseBenchLine(tc.line)
		if !ok {
			t.Errorf("rejected %q", tc.line)
			continue
		}
		if b.Name != tc.name || b.Procs != tc.procs || b.Iterations != tc.iter {
			t.Errorf("%q: parsed %+v", tc.line, b)
		}
		if len(b.Metrics) != len(tc.metrics) {
			t.Errorf("%q: metrics %v, want %v", tc.line, b.Metrics, tc.metrics)
			continue
		}
		for unit, want := range tc.metrics {
			if got := b.Metrics[unit]; got != want {
				t.Errorf("%q: %s = %v, want %v", tc.line, unit, got, want)
			}
		}
	}
}

// TestParseFixtures replays captured `go test -bench` output through the full
// parser, pinning the missing-column and dashed-name behavior end to end.
func TestParseFixtures(t *testing.T) {
	t.Run("no_benchmem", func(t *testing.T) {
		doc := parseFixture(t, "testdata/no_benchmem.txt")
		if len(doc.Benchmarks) != 2 {
			t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
		}
		b := doc.Benchmarks[0]
		if b.Name != "HotloopStepTo" || b.Package != "repro/internal/thermal" {
			t.Errorf("benchmark = %+v", b)
		}
		if got := b.Metrics["ns/op"]; got != 52205 {
			t.Errorf("ns/op = %v, want 52205", got)
		}
		if _, ok := b.Metrics["B/op"]; ok {
			t.Errorf("phantom B/op metric in %v", b.Metrics)
		}
	})
	t.Run("dash_subbench", func(t *testing.T) {
		doc := parseFixture(t, "testdata/dash_subbench.txt")
		if len(doc.Benchmarks) != 3 {
			t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
		}
		wantNames := []string{
			"Evaluate/ring-scope-l1",
			"Evaluate/tau-1ms-grid-4x4",
			"Evaluate/noise-0.5",
		}
		for i, want := range wantNames {
			if got := doc.Benchmarks[i].Name; got != want {
				t.Errorf("benchmark %d name = %q, want %q", i, got, want)
			}
			if procs := doc.Benchmarks[i].Procs; procs != 8 {
				t.Errorf("benchmark %d procs = %d, want 8", i, procs)
			}
		}
		if got := doc.Benchmarks[2].Metrics["B/op"]; got != 12 {
			t.Errorf("partial -benchmem columns: B/op = %v, want 12", got)
		}
	})
}

func parseFixture(t *testing.T, path string) *File {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parse(bufio.NewScanner(strings.NewReader(string(raw))), nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
