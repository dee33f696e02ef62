package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// HeterogeneityRow characterizes one benchmark on the platform — the
// S-NUCA performance heterogeneity of [19] that both schedulers exploit.
type HeterogeneityRow struct {
	Benchmark string
	// BestIPS and WorstIPS are instructions/second at peak frequency on the
	// lowest- and highest-AMD cores.
	BestIPS  float64
	WorstIPS float64
	// PlacementGainPercent is the center-vs-corner speedup.
	PlacementGainPercent float64
	// DVFSSlowdownPercent is the performance lost at half frequency (on the
	// centre core) — the knob PCMig pays with.
	DVFSSlowdownPercent float64
}

// Heterogeneity tabulates placement and DVFS sensitivity of every PARSEC
// model on the 64-core platform: memory-bound benchmarks care about
// placement and shrug off DVFS; compute-bound benchmarks are the reverse.
// These are model queries, not simulations, so they run serially.
func Heterogeneity() ([]HeterogeneityRow, error) {
	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(8, 8))
	if err != nil {
		return nil, err
	}
	fp := plat.FP
	// Lowest- and highest-AMD cores.
	best, worst := 0, 0
	for c := 1; c < fp.NumCores(); c++ {
		if fp.AMD(c) < fp.AMD(best) {
			best = c
		}
		if fp.AMD(c) > fp.AMD(worst) {
			worst = c
		}
	}
	fmax := plat.Power.DVFS().FMax
	bs := workload.PARSEC()
	rows := make([]HeterogeneityRow, len(bs))
	for i, b := range bs {
		p := b.Perf()
		bestIPS := plat.Perf.IPS(p, best, fmax)
		worstIPS := plat.Perf.IPS(p, worst, fmax)
		slow := plat.Perf.SlowdownAt(p, best, fmax/2, fmax)
		rows[i] = HeterogeneityRow{
			Benchmark:            b.Name,
			BestIPS:              bestIPS,
			WorstIPS:             worstIPS,
			PlacementGainPercent: (bestIPS/worstIPS - 1) * 100,
			DVFSSlowdownPercent:  (slow - 1) * 100,
		}
	}
	return rows, nil
}
