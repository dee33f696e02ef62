package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// manifestMetric is one metric BENCHMARK.json declares.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest() (*benchmarkSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkManifest fails a run whose metrics are not exactly those
// BENCHMARK.json declares for its mode (end-to-end, or per-layer when
// traced), each in its declared unit.
func checkManifest(got map[string]metric, traced bool) error {
	spec, err := loadManifest()
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	var bad []string
	for _, m := range want {
		if v, ok := got[m.Name]; !ok {
			bad = append(bad, m.Name+" missing")
		} else if v.Unit != m.Unit {
			bad = append(bad, fmt.Sprintf("%s in %s, declared %s", m.Name, v.Unit, m.Unit))
		}
	}
	if len(got) != len(want) {
		declared := map[string]bool{}
		for _, m := range want {
			declared[m.Name] = true
		}
		for name := range got {
			if !declared[name] {
				bad = append(bad, name+" undeclared")
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(bad, "; "))
	}
	return nil
}

// readResults reads one result line per run from path: the last line each
// run printed, in the order the pairs ran.
func readResults(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare judges a change against its parent from paired runs of one
// workload: a gain must win nine of ten pairs by more than the parent's own
// spread, and no metric may be worse than the parent's median by more than
// its bound.
func compare(parentPath, changePath string) error {
	spec, err := loadManifest()
	if err != nil {
		return err
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	var failed []string
	for _, r := range append(append([]report(nil), parent...), change...) {
		if !r.Correct || r.Failed > 0 {
			failed = append(failed, "a run is incorrect or has failed operations")
			break
		}
	}
	for _, m := range spec.EndToEnd {
		var p, c []float64
		for _, r := range parent {
			if v, ok := r.Metrics[m.Name]; ok {
				p = append(p, v.Value)
			}
		}
		for _, r := range change {
			if v, ok := r.Metrics[m.Name]; ok {
				c = append(c, v.Value)
			}
		}
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		lower := m.Better == "lower"
		wins, gain := claimHolds(p, c, lower)
		pm, cm := median(p), median(c)
		worse := (cm - pm) / pm
		if !lower {
			worse = -worse
		}
		verdict := "unchanged"
		switch {
		case gain:
			verdict = "GAIN"
		case worse > m.Bound:
			verdict = "REGRESSION"
			failed = append(failed, m.Name+" regressed")
		case spread(p) > m.Bound:
			verdict = "unresolved (parent spread exceeds the bound)"
		}
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		fmt.Printf("%-20s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  wins %d/%d  %s\n",
			m.Name, pm, pq1, pq3, cm, cq1, cq3, wins, min(len(p), len(c)), verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("comparison failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
