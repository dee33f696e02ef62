package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableIMatchesPaper(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Number of Cores":  "64",
		"L1 I/D cache":     "16/16 KB, 8/8-way, 64B-block",
		"LLC":              "128 KB per core, 16-way, 64B-block",
		"NoC Latency":      "1.5 ns per hop",
		"NoC link width":   "256 Bit",
		"The area of core": "0.81 mm²",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Parameter] = r.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}
	if !strings.Contains(got["Core Model"], "4.0 GHz") {
		t.Errorf("core model %q missing 4.0 GHz", got["Core Model"])
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(0)
	if err != nil {
		t.Fatal(err)
	}
	// (a) unmanaged breaches the threshold.
	if !res.None.Breaches {
		t.Errorf("unmanaged run peaked at %.1f °C, expected a breach of 70", res.None.PeakTemp)
	}
	// (b) and (c) stay thermally safe (small DTM-hysteresis excursions allowed).
	if res.TSP.PeakTemp > 70.5 {
		t.Errorf("TSP peak %.1f °C", res.TSP.PeakTemp)
	}
	if res.Rotation.PeakTemp > 70.5 {
		t.Errorf("rotation peak %.1f °C", res.Rotation.PeakTemp)
	}
	// Response-time ordering of the paper: none < rotation < TSP.
	if !(res.None.Response < res.Rotation.Response) {
		t.Errorf("rotation (%.1f ms) not slower than unmanaged (%.1f ms)",
			res.Rotation.Response*1e3, res.None.Response*1e3)
	}
	if !(res.Rotation.Response < res.TSP.Response) {
		t.Errorf("rotation (%.1f ms) not faster than TSP (%.1f ms)",
			res.Rotation.Response*1e3, res.TSP.Response*1e3)
	}
	// Rotation migrates; the others never do.
	if res.Rotation.Migrations == 0 {
		t.Error("rotation recorded no migrations")
	}
	if res.None.Migrations != 0 || res.TSP.Migrations != 0 {
		t.Error("static policies migrated")
	}
}

func TestFig2TraceRecording(t *testing.T) {
	res, err := Fig2(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.None.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	prev := 0.0
	for _, s := range res.None.Trace {
		if s.Time <= prev {
			t.Fatal("trace times not monotone")
		}
		prev = s.Time
	}
}

func TestOverheadWithinEpoch(t *testing.T) {
	res, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 23.76 µs per scheduling computation (4.75% of a
	// 0.5 ms epoch). Our fast-path decision must also fit comfortably within
	// an epoch on commodity hardware.
	if res.DecidePerCall.Seconds() > 0.25e-3 {
		t.Errorf("per-epoch decision %v exceeds half an epoch", res.DecidePerCall)
	}
	if res.Alg1PerCall <= 0 || res.PlacementPerThread <= 0 {
		t.Error("degenerate timings")
	}
	if s := res.String(); !strings.Contains(s, "Algorithm 1") {
		t.Errorf("String() = %q", s)
	}
}

func TestAnalyticVsBruteAgreesAndWins(t *testing.T) {
	rows, err := AnalyticVsBrute([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if diff := r.AnalyticPeak - r.BrutePeak; diff > 0.1 || diff < -0.1 {
			t.Errorf("δ=%d: analytic %.3f vs brute %.3f", r.Delta, r.AnalyticPeak, r.BrutePeak)
		}
		if r.SpeedupFactor < 10 {
			t.Errorf("δ=%d: analytic only %.0f× faster", r.Delta, r.SpeedupFactor)
		}
	}
}

func TestReportWriters(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	WriteTableI(&buf, rows)
	if !strings.Contains(buf.String(), "Number of Cores") {
		t.Error("TableI report incomplete")
	}

	buf.Reset()
	WriteFig4a(&buf, []Fig4aRow{{Benchmark: "x264", HotPotatoMakespan: 0.1, PCMigMakespan: 0.12, NormalizedMakespan: 0.83, SpeedupPercent: 17}})
	if !strings.Contains(buf.String(), "x264") || !strings.Contains(buf.String(), "average speedup") {
		t.Error("Fig4a report incomplete")
	}

	buf.Reset()
	WriteFig4b(&buf, []Fig4bRow{{ArrivalRate: 100, HotPotatoResponse: 0.07, PCMigResponse: 0.08, SpeedupPercent: 12}})
	if !strings.Contains(buf.String(), "100/s") {
		t.Error("Fig4b report incomplete")
	}

	buf.Reset()
	WriteTauSweep(&buf, []TauSweepRow{{Tau: 0.5e-3, Response: 0.06, PeakTemp: 65, Migrations: 100}})
	if !strings.Contains(buf.String(), "0.500 ms") {
		t.Error("TauSweep report incomplete")
	}
}

func TestThreeDShape(t *testing.T) {
	res, err := ThreeD()
	if err != nil {
		t.Fatal(err)
	}
	if res.BuriedHotter <= 0 {
		t.Errorf("buried layer not hotter (gap %.2f K)", res.BuriedHotter)
	}
	peaks := map[string]float64{}
	for _, r := range res.Rows {
		peaks[r.Policy] = r.Peak
	}
	pinned := peaks["pinned buried"]
	for name, p := range peaks {
		if name != "pinned buried" && p >= pinned {
			t.Errorf("%s peak %.2f not below pinned %.2f", name, p, pinned)
		}
	}
	// More cores in the rotation → lower peak.
	if !(peaks["both layers' rings"] < peaks["horizontal ring (buried layer)"]) {
		t.Error("8-core 3D rotation not cooler than 4-core horizontal rotation")
	}
	var buf bytes.Buffer
	WriteThreeD(&buf, res)
	if !strings.Contains(buf.String(), "vertical pair") {
		t.Error("3D report incomplete")
	}
}

func TestHeterogeneityShape(t *testing.T) {
	rows, err := Heterogeneity()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]HeterogeneityRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.BestIPS < r.WorstIPS {
			t.Errorf("%s: centre core slower than corner", r.Benchmark)
		}
	}
	// canneal: most placement-sensitive, least DVFS-sensitive; swaptions the
	// reverse ([19]'s characterization).
	if byName["canneal"].PlacementGainPercent <= byName["swaptions"].PlacementGainPercent {
		t.Error("canneal not more placement-sensitive than swaptions")
	}
	if byName["canneal"].DVFSSlowdownPercent >= byName["swaptions"].DVFSSlowdownPercent {
		t.Error("canneal not less DVFS-sensitive than swaptions")
	}
	var buf bytes.Buffer
	WriteHeterogeneity(&buf, rows)
	if !strings.Contains(buf.String(), "canneal") {
		t.Error("heterogeneity report incomplete")
	}
}

func TestCSVEmitters(t *testing.T) {
	res, err := Fig2(50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig2TracesCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_ms,unmanaged_C,tsp_C,rotation_C") {
		t.Errorf("fig2 CSV header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if strings.Count(out, "\n") < 10 {
		t.Error("fig2 CSV has too few rows")
	}
	// Traceless result errors.
	empty, err := Fig2(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig2TracesCSV(&buf, empty); err == nil {
		t.Error("traceless Fig2 CSV accepted")
	}

	buf.Reset()
	if err := WriteFig4aCSV(&buf, []Fig4aRow{{Benchmark: "x264", HotPotatoMakespan: 0.1, PCMigMakespan: 0.12}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x264,100.000,120.000") {
		t.Errorf("fig4a CSV: %q", buf.String())
	}

	buf.Reset()
	if err := WriteFig4bCSV(&buf, []Fig4bRow{{ArrivalRate: 100, HotPotatoResponse: 0.07, PCMigResponse: 0.08, SpeedupPercent: 12.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "100.0,70.000,80.000,12.50") {
		t.Errorf("fig4b CSV: %q", buf.String())
	}

	buf.Reset()
	if err := WriteTauSweepCSV(&buf, []TauSweepRow{{Tau: 0.5e-3, Response: 0.059, PeakTemp: 61.2, Migrations: 234}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.500,59.000,61.200,234") {
		t.Errorf("tau CSV: %q", buf.String())
	}
}
