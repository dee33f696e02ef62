package experiments_test

// The shape and determinism tests of the cell-based harness figures, which
// live in the root package (harness.go). They sit in this directory's
// external test package because they also exercise this package's writers.

import (
	"bytes"
	"strings"
	"testing"

	hotpotato "repro"
	"repro/internal/experiments"
)

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-core sweep in -short mode")
	}
	rows, err := hotpotato.Fig4a(hotpotato.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 benchmarks", len(rows))
	}
	var cannealSpeedup, minSpeedup float64 = -1, 1e9
	for _, r := range rows {
		// HotPotato must win (or tie within noise) on every benchmark.
		if r.SpeedupPercent < -1 {
			t.Errorf("%s: HotPotato slower than PCMig by %.2f%%", r.Benchmark, -r.SpeedupPercent)
		}
		if r.Benchmark == "canneal" {
			cannealSpeedup = r.SpeedupPercent
		}
		if r.SpeedupPercent < minSpeedup {
			minSpeedup = r.SpeedupPercent
		}
		// Both schedulers essentially respect the threshold.
		if r.HotPotatoPeak > 72 || r.PCMigPeak > 72 {
			t.Errorf("%s: peaks %.1f / %.1f °C", r.Benchmark, r.HotPotatoPeak, r.PCMigPeak)
		}
	}
	// canneal produces very little heat → the smallest gain (paper: 0.73%).
	if cannealSpeedup > 3 {
		t.Errorf("canneal speedup %.2f%%, expected the near-zero paper shape", cannealSpeedup)
	}
	avg := experiments.Fig4aAverageSpeedup(rows)
	// Paper: 10.72% average. Accept the same decade: 5–25%.
	if avg < 5 || avg > 25 {
		t.Errorf("average speedup %.2f%%, want the paper's ≈10%% decade (5–25)", avg)
	}
}

func TestFig4bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-core sweep in -short mode")
	}
	rows, err := hotpotato.Fig4b(hotpotato.ExperimentOptions{}, experiments.DefaultFig4bRates(), 20, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	best, bestIdx := -1e9, -1
	for i, r := range rows {
		if r.SpeedupPercent < -1 {
			t.Errorf("rate %.0f: HotPotato slower by %.2f%%", r.ArrivalRate, -r.SpeedupPercent)
		}
		if r.SpeedupPercent > best {
			best, bestIdx = r.SpeedupPercent, i
		}
	}
	// The paper's hump: the gain peaks at a medium load, not at either end.
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Errorf("speedup maximal at load extreme (index %d); paper shows a medium-load peak", bestIdx)
	}
	if best < 5 || best > 25 {
		t.Errorf("peak speedup %.2f%%, want the paper's ≈12%% decade", best)
	}
}

func TestTauSweepShape(t *testing.T) {
	rows, err := hotpotato.TauSweep(experiments.DefaultTaus())
	if err != nil {
		t.Fatal(err)
	}
	// Peak temperature grows with τ (slower rotation averages worse)...
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakTemp < rows[i-1].PeakTemp-0.2 {
			t.Errorf("peak not increasing with τ: %.2f at %.3f ms vs %.2f at %.3f ms",
				rows[i].PeakTemp, rows[i].Tau*1e3, rows[i-1].PeakTemp, rows[i-1].Tau*1e3)
		}
	}
	// ...while migration count shrinks.
	if rows[0].Migrations <= rows[len(rows)-1].Migrations {
		t.Error("migration count not decreasing with τ")
	}
}

func TestMigrationCostSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := hotpotato.MigrationCostSweep([]float64{1, 8}, hotpotato.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].SpeedupPercent >= rows[0].SpeedupPercent {
		t.Errorf("HotPotato's edge did not shrink with 8× migration cost: %.2f%% → %.2f%%",
			rows[0].SpeedupPercent, rows[1].SpeedupPercent)
	}
}

func TestHybridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := hotpotato.Hybrid(hotpotato.ExperimentOptions{}, []string{"blackscholes"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The hybrid must stay competitive with pure HotPotato and clearly beat
	// the DVFS-only baseline, while throttling no more than pure rotation.
	if r.Hybrid > r.HotPotato*1.15 {
		t.Errorf("hybrid %.1f ms much slower than pure %.1f ms", r.Hybrid*1e3, r.HotPotato*1e3)
	}
	if r.Hybrid >= r.PCMig {
		t.Errorf("hybrid %.1f ms not faster than PCMig %.1f ms", r.Hybrid*1e3, r.PCMig*1e3)
	}
	if r.HybridDTM > r.HotPotatoDTM+1e-3 {
		t.Errorf("hybrid DTM %.2f ms worse than pure %.2f ms", r.HybridDTM*1e3, r.HotPotatoDTM*1e3)
	}
	var buf bytes.Buffer
	experiments.WriteHybrid(&buf, rows)
	if !strings.Contains(buf.String(), "blackscholes") {
		t.Error("hybrid report incomplete")
	}
}

func TestFig4bMultiSeedAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core multi-seed sweep in -short mode")
	}
	rows, err := hotpotato.Fig4bMultiSeed(hotpotato.ExperimentOptions{}, []float64{100}, 12, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Seeds != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].MeanSpeedup < 0 {
		t.Errorf("mean speedup %.2f%% negative across seeds", rows[0].MeanSpeedup)
	}
	if rows[0].SpeedupCI95 < 0 {
		t.Error("negative CI")
	}
	var buf bytes.Buffer
	experiments.WriteFig4bMultiSeed(&buf, rows)
	if !strings.Contains(buf.String(), "±") {
		t.Error("multi-seed report incomplete")
	}
	if _, err := hotpotato.Fig4bMultiSeed(hotpotato.ExperimentOptions{}, []float64{100}, 5, nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

func TestNoiseSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := hotpotato.NoiseSweep([]float64{0, 2}, hotpotato.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := rows[0], rows[1]
	if noisy.Makespan > clean.Makespan*1.2 {
		t.Errorf("2 K sensor noise cost %.0f%% makespan",
			100*(noisy.Makespan/clean.Makespan-1))
	}
	if noisy.PeakTemp > 73 {
		t.Errorf("noisy peak %.2f °C", noisy.PeakTemp)
	}
	var buf bytes.Buffer
	experiments.WriteNoiseSweep(&buf, rows)
	if !strings.Contains(buf.String(), "noise") {
		t.Error("noise report incomplete")
	}
}

func TestHeadroomSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := hotpotato.HeadroomSweep([]float64{0.5, 4}, hotpotato.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tight, wide := rows[0], rows[1]
	// A wide margin must not throttle more than a tight one, and costs some
	// performance.
	if wide.DTMEvents > tight.DTMEvents {
		t.Errorf("Δ=4: %d DTM events vs %d at Δ=0.5", wide.DTMEvents, tight.DTMEvents)
	}
	if wide.Makespan < tight.Makespan*0.95 {
		t.Errorf("wide margin implausibly faster: %.1f vs %.1f ms",
			wide.Makespan*1e3, tight.Makespan*1e3)
	}
	var buf bytes.Buffer
	experiments.WriteHeadroomSweep(&buf, rows)
	if !strings.Contains(buf.String(), "DTM events") {
		t.Error("headroom report incomplete")
	}
}

func TestBaselinesLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core ladder in -short mode")
	}
	rows, err := hotpotato.Baselines(hotpotato.ExperimentOptions{}, "x264")
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]hotpotato.BaselineRow{}
	for _, r := range rows {
		by[r.Policy] = r
		if r.PeakTemp > 73 {
			t.Errorf("%s peak %.2f °C", r.Policy, r.PeakTemp)
		}
	}
	// The model-driven rotation policies beat both DVFS baselines.
	if by["hotpotato"].Makespan >= by["pcmig"].Makespan {
		t.Error("hotpotato not faster than pcmig")
	}
	if by["hotpotato"].Makespan >= by["reactive (ondemand-style)"].Makespan {
		t.Error("hotpotato not faster than the reactive governor")
	}
	var buf bytes.Buffer
	experiments.WriteBaselines(&buf, "x264", rows)
	if !strings.Contains(buf.String(), "hotpotato-dvfs") {
		t.Error("baseline report incomplete")
	}
}

func TestContentionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core contention sweep in -short mode")
	}
	rows, err := hotpotato.Contention(hotpotato.ExperimentOptions{}, []string{"streamcluster"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ContentionCostPct <= 0 {
		t.Errorf("contention made the run faster (%.1f%%)", r.ContentionCostPct)
	}
	// The headline conclusion must survive the bandwidth model: HotPotato
	// does not lose to PCMig with contention on.
	if r.SpeedupOnPercent < -2 {
		t.Errorf("HotPotato loses %.2f%% to PCMig under contention", -r.SpeedupOnPercent)
	}
	var buf bytes.Buffer
	experiments.WriteContention(&buf, rows)
	if !strings.Contains(buf.String(), "streamcluster") {
		t.Error("contention report incomplete")
	}
}

func TestConcurrentPairDeterministic(t *testing.T) {
	// Fig4b fans its scheduler cells out on the sweep executor; results must
	// be identical across repeated invocations (no shared state between cells).
	opts := hotpotato.ExperimentOptions{GridEdge: 4, WorkScale: 0.3}
	run := func() []hotpotato.Fig4bRow {
		rows, err := hotpotato.Fig4b(opts, []float64{100}, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	if a[0].HotPotatoResponse != b[0].HotPotatoResponse ||
		a[0].PCMigResponse != b[0].PCMigResponse {
		t.Fatalf("concurrent pair runs diverge: %+v vs %+v", a[0], b[0])
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The acceptance property of the parallel harness: workers=1 and
	// workers=8 produce bit-identical Fig4b aggregate rows for the same
	// seeds. Any divergence means a cell leaked state into another.
	rates := []float64{100, 200}
	seeds := []int64{1, 2}
	run := func(workers int) []hotpotato.Fig4bAggRow {
		opts := hotpotato.ExperimentOptions{GridEdge: 4, WorkScale: 0.3, Workers: workers}
		rows, err := hotpotato.Fig4bMultiSeed(opts, rates, 6, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := run(1), run(8)
	if len(serial) != len(rates) || len(parallel) != len(rates) {
		t.Fatalf("row counts %d / %d, want %d", len(serial), len(parallel), len(rates))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("rate %.0f: workers=1 row %+v != workers=8 row %+v",
				rates[i], serial[i], parallel[i])
		}
	}
}
