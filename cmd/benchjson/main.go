// Command benchjson converts `go test -bench` text output on stdin into the
// machine-readable perf-trajectory format committed as BENCH_hotloop.json.
//
//	go test -run '^$' -bench '^BenchmarkHotloop' -benchmem ./... | benchjson -out BENCH_hotloop.json
//
// Every benchmark line becomes one record carrying the iteration count and
// all reported metrics (ns/op, B/op, allocs/op, plus any b.ReportMetric
// extras). Context lines (goos/goarch/cpu/pkg) annotate the records that
// follow them. The raw input is echoed to stderr so the conversion does not
// swallow the benchmark log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the top-level document: shared context plus one record per
// benchmark, in input order.
type File struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(bufio.NewScanner(os.Stdin), os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner, echo *os.File) (*File, error) {
	doc := &File{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue // e.g. "BenchmarkFoo ... FAIL"
			}
			b.Package = pkg
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses one result line of the standard benchmark format:
//
//	BenchmarkName-8   1234   56.7 ns/op   0 B/op   0 allocs/op   3.2 extra
//
// The shape is tolerated loosely rather than matched exactly: sub-benchmark
// names may contain dashes (only an all-digit -N suffix counts as the
// GOMAXPROCS tag), columns may be absent (runs without -benchmem report only
// ns/op), and a stray token between value/unit pairs skips that token instead
// of discarding the whole line. A line is rejected only when the iteration
// count is missing or no value/unit pair parses at all.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:    strings.TrimPrefix(fields[0], "Benchmark"),
		Metrics: map[string]float64{},
	}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = procs
			b.Name = b.Name[:i]
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iter
	for i := 2; i+1 < len(fields); {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			i++ // not a value: stray token, resync on the next field
			continue
		}
		unit := fields[i+1]
		if _, err := strconv.ParseFloat(unit, 64); err == nil {
			i++ // two adjacent numbers: fields[i] has no unit, drop it
			continue
		}
		b.Metrics[unit] = v
		i += 2
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}
