// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§VI), plus the ablations DESIGN.md calls out. Each
// benchmark reports the experiment's scientific metrics via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates the paper's rows:
//
//	BenchmarkFig2*                — Fig. 2 motivational traces (response ms, peak °C)
//	BenchmarkFig4a*               — Fig. 4(a) homogeneous full load (speedup %)
//	BenchmarkFig4b*               — Fig. 4(b) heterogeneous open system (speedup %)
//	BenchmarkHotloopPlatformBuild — Table I construction (platform build cost)
//	BenchmarkOverhead*            — §VI run-time overhead (µs per decision)
//	BenchmarkAblation*            — τ sweep, migration cost, analytic-vs-brute
//
// The BenchmarkHotloop* rows (the platform build and the sweep here, the
// kernels in internal/...) also form make bench's hot-loop suite,
// BENCH_hotloop.json.
package hotpotato_test

import (
	"fmt"
	"runtime"
	"testing"

	hotpotato "repro"
	"repro/internal/experiments"
)

// --- Fig. 2: motivational example -----------------------------------------

func benchFig2(b *testing.B, pick func(*hotpotato.Fig2Result) *experiments.Fig2Policy) {
	for i := 0; i < b.N; i++ {
		res, err := hotpotato.Fig2(0)
		if err != nil {
			b.Fatal(err)
		}
		p := pick(res)
		b.ReportMetric(p.Response*1e3, "response_ms")
		b.ReportMetric(p.PeakTemp, "peak_C")
	}
}

func BenchmarkFig2aUnmanaged(b *testing.B) {
	benchFig2(b, func(r *hotpotato.Fig2Result) *experiments.Fig2Policy { return &r.None })
}

func BenchmarkFig2bTSP(b *testing.B) {
	benchFig2(b, func(r *hotpotato.Fig2Result) *experiments.Fig2Policy { return &r.TSP })
}

func BenchmarkFig2cRotation(b *testing.B) {
	benchFig2(b, func(r *hotpotato.Fig2Result) *experiments.Fig2Policy { return &r.Rotation })
}

// --- Fig. 4(a): homogeneous full load --------------------------------------

func BenchmarkFig4aHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.Fig4a(hotpotato.ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig4aAverageSpeedup(rows), "avg_speedup_%")
		for _, r := range rows {
			if r.Benchmark == "canneal" {
				b.ReportMetric(r.SpeedupPercent, "canneal_speedup_%")
			}
		}
	}
}

// --- Fig. 4(b): heterogeneous open system ----------------------------------

func BenchmarkFig4bHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.Fig4b(hotpotato.ExperimentOptions{},
			experiments.DefaultFig4bRates(), 20, 12345)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.SpeedupPercent > best {
				best = r.SpeedupPercent
			}
		}
		b.ReportMetric(best, "peak_speedup_%")
	}
}

// --- Table I: platform -----------------------------------------------------

// BenchmarkHotloopPlatformBuild is the cost of building the full 64-core
// platform (floorplan, NoC, caches, RC model with eigendecomposition —
// Algorithm 1's design-time phase). Its name puts it in make bench's
// hot-loop suite (BENCH_hotloop.json).
func BenchmarkHotloopPlatformBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hotpotato.NewPlatform(8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VI run-time overhead ---------------------------------------------------

func BenchmarkOverheadAlgorithm1(b *testing.B) {
	var res *hotpotato.OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hotpotato.Overhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Alg1PerCall.Nanoseconds())/1e3, "alg1_us")
}

func BenchmarkOverheadHotPotatoDecision(b *testing.B) {
	// The paper's 23.76 µs measurement: one scheduling computation for a
	// fully loaded 64-core chip during steady rotation.
	var res *hotpotato.OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hotpotato.Overhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DecidePerCall.Nanoseconds())/1e3, "decide_us")
	b.ReportMetric(res.EpochFraction*100, "epoch_overhead_%")
	b.ReportMetric(float64(res.PlacementPerThread.Nanoseconds())/1e3, "placement_us")
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationTauSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.TauSweep(experiments.DefaultTaus())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].PeakTemp, "peak_fastest_tau_C")
		b.ReportMetric(rows[len(rows)-1].PeakTemp, "peak_slowest_tau_C")
	}
}

func BenchmarkAblationMigrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.MigrationCostSweep([]float64{1, 8},
			experiments.Options{WorkScale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SpeedupPercent, "speedup_1x_%")
		b.ReportMetric(rows[1].SpeedupPercent, "speedup_8x_%")
	}
}

func BenchmarkAblationAnalyticVsBrute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AnalyticVsBrute([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SpeedupFactor, "analytic_speedup_x")
	}
}

func BenchmarkFutureWorkHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.Hybrid(experiments.Options{}, []string{"blackscholes"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Hybrid*1e3, "hybrid_makespan_ms")
		b.ReportMetric(rows[0].HybridDTM*1e3, "hybrid_dtm_ms")
	}
}

func BenchmarkAblationNoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.NoiseSweep([]float64{0, 2}, experiments.Options{WorkScale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Makespan/rows[0].Makespan, "noisy_vs_clean_ratio")
	}
}

func BenchmarkAblationHeadroomSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.HeadroomSweep([]float64{0.5, 4}, experiments.Options{WorkScale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].DTMEvents), "dtm_events_tight")
		b.ReportMetric(float64(rows[1].DTMEvents), "dtm_events_wide")
	}
}

func BenchmarkCharacterizeHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Heterogeneity()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "canneal" {
				b.ReportMetric(r.PlacementGainPercent, "canneal_placement_gain_%")
			}
		}
	}
}

// --- Parallel sweep harness -------------------------------------------------

// BenchmarkHotloopSweep is the top of the hot-loop stack for the committed
// BENCH_hotloop.json baseline (make bench): a small multi-seed Fig. 4(b)
// sweep on the harness's ExecuteSweepCells pool. One op = 2 seeds × 2 rates
// × 2 schedulers = 8 full simulations; every one of their epoch loops runs
// the zero-allocation stepping path, so allocs/op here tracks only
// per-epoch and harness-level work.
func BenchmarkHotloopSweep(b *testing.B) {
	opts := hotpotato.ExperimentOptions{GridEdge: 4, WorkScale: 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.Fig4bMultiSeed(opts, []float64{100, 200}, 6, []int64{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkParallelSweep measures the ExecuteSweepCells fan-out of the
// experiment harness on a fixed multi-seed Fig. 4(b) sweep (2 seeds × 2
// rates × 2 schedulers = 8 independent simulation cells). On an N-core
// machine the workers=N variant should approach N× the workers=1
// throughput; the rows are bit-identical at every worker count
// (TestHarnessGoldenDigests).
func BenchmarkParallelSweep(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	if counts[2] <= 2 {
		counts = counts[:2] // avoid a duplicate sub-benchmark on small hosts
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := hotpotato.ExperimentOptions{GridEdge: 4, WorkScale: 0.3, Workers: w}
			for i := 0; i < b.N; i++ {
				rows, err := hotpotato.Fig4bMultiSeed(opts, []float64{100, 200}, 6, []int64{1, 2})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 2 {
					b.Fatalf("rows = %d", len(rows))
				}
			}
		})
	}
}

func BenchmarkBaselinesLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hotpotato.Baselines(hotpotato.ExperimentOptions{WorkScale: 0.5}, "x264")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "hotpotato" {
				b.ReportMetric(r.Makespan*1e3, "hotpotato_ms")
			}
		}
	}
}
