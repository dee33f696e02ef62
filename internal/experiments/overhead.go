package experiments

import (
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// OverheadResult reports the scheduler's run-time cost on a fully loaded
// 64-core chip — the paper's §VI measurement (23.76 µs per scheduling
// computation, 4.75% of a 0.5 ms epoch).
type OverheadResult struct {
	// Alg1PerCall is the mean wall-clock cost of one Algorithm 1 peak
	// temperature evaluation (one ring, 64-core model).
	Alg1PerCall time.Duration
	// DecidePerCall is the mean cost of one HotPotato scheduling decision
	// during steady rotation (the per-epoch fast path).
	DecidePerCall time.Duration
	// PlacementPerThread is the mean cost of placing one arriving thread
	// (the slow path with ring scans).
	PlacementPerThread time.Duration
	// EpochFraction is DecidePerCall / 0.5 ms — comparable to the paper's
	// 4.75% overhead claim.
	EpochFraction float64
	// Calls is the number of measured fast-path decisions.
	Calls int
}

// Overhead measures HotPotato's run-time cost on a fully loaded 64-core
// platform. Deliberately serial — unlike the sweep experiments it reports
// host wall-clock timings, which concurrent cells sharing the CPU would
// inflate; do not run it as sweep cells.
func Overhead() (*OverheadResult, error) {
	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(8, 8))
	if err != nil {
		return nil, err
	}
	out := &OverheadResult{}

	// Algorithm 1 cost: one mid-chip ring evaluation, after the call that
	// builds its (ring, τ) response table.
	ev := plat.PeakCalculator().NewRingEvaluator()
	rings := plat.FP.Rings()
	ring := rings[len(rings)/2]
	base := matrix.Constant(64, 2.0)
	slotWatts := make([]float64, len(ring.Cores))
	for i := range slotWatts {
		slotWatts[i] = 0.3 + float64(i%3)*2.5
	}
	if _, err := ev.PeakRingRotation(0.5e-3, base, ring.Cores, slotWatts); err != nil {
		return nil, err
	}
	const alg1Iters = 2000
	start := time.Now()
	for i := 0; i < alg1Iters; i++ {
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring.Cores, slotWatts); err != nil {
			return nil, err
		}
	}
	out.Alg1PerCall = time.Since(start) / alg1Iters

	// Fast-path Decide cost: full 64-thread load rotating steadily.
	hp := sched.NewHotPotato(plat, 70)
	st, err := fullLoadState(plat)
	if err != nil {
		return nil, err
	}
	hp.Decide(st) // placement (slow path) happens once here
	const decideIters = 2000
	start = time.Now()
	for i := 0; i < decideIters; i++ {
		st.Time += 0.5e-3
		hp.Decide(st)
	}
	out.DecidePerCall = time.Since(start) / decideIters
	out.Calls = decideIters
	out.EpochFraction = out.DecidePerCall.Seconds() / 0.5e-3

	// Placement cost: fresh scheduler, place all 64 threads, divide. The
	// platform's response tables are warm from the runs above, as they are
	// for every run after a platform's first.
	hp2 := sched.NewHotPotato(plat, 70)
	st2, err := fullLoadState(plat)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	hp2.Decide(st2)
	out.PlacementPerThread = time.Since(start) / time.Duration(len(st2.Threads))

	return out, nil
}

// fullLoadState builds a synthetic scheduler state with 64 live threads of a
// mixed workload, as seen by the scheduler at steady full load.
func fullLoadState(plat *sim.Platform) (*sim.State, error) {
	bs := workload.PARSEC()
	temps := make([]float64, plat.NumCores())
	for i := range temps {
		temps[i] = 62
	}
	var threads []sim.ThreadInfo
	for i := 0; i < plat.NumCores(); i++ {
		b := bs[i%len(bs)]
		threads = append(threads, sim.ThreadInfo{
			ID:           sim.ThreadID{Task: i / 4, Thread: i % 4},
			Benchmark:    b.Name,
			Perf:         b.Perf(),
			NominalWatts: b.NominalWatts,
			Core:         -1,
			AvgPower:     2.2,
			CPI:          1 + float64(i%5)*0.3,
		})
	}
	return &sim.State{
		Time:      0,
		CoreTemps: temps,
		Threads:   threads,
		Platform:  plat,
		TDTM:      70,
	}, nil
}

// String renders the result in the paper's reporting style.
func (o *OverheadResult) String() string {
	return fmt.Sprintf(
		"Algorithm 1 (one ring eval): %v\n"+
			"HotPotato decision (rotation fast path): %v (%.2f%% of a 0.5 ms epoch)\n"+
			"HotPotato placement (per arriving thread): %v",
		o.Alg1PerCall, o.DecidePerCall, o.EpochFraction*100, o.PlacementPerThread)
}
