package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig2Policy is one curve of the motivational example.
type Fig2Policy struct {
	Name       string
	Response   float64 // seconds
	PeakTemp   float64 // °C
	Breaches   bool    // exceeded the 70 °C threshold
	Migrations int
	Trace      []Fig2Sample
}

// Fig2Sample is one point of a thermal trace: the hottest of the four centre
// cores, which the paper's Fig. 2 plots.
type Fig2Sample struct {
	Time    float64
	MaxTemp float64
}

// Fig2Result holds the three executions of Fig. 2(a)–(c).
type Fig2Result struct {
	None     Fig2Policy // (a) unmanaged at peak frequency
	TSP      Fig2Policy // (b) TSP DVFS power budgeting
	Rotation Fig2Policy // (c) synchronous rotation, τ = 0.5 ms
}

// Fig2 reproduces the paper's motivational example: a two-threaded
// blackscholes on cores 5 and 10 of a 16-core S-NUCA chip, under (a) no
// management, (b) TSP-based DVFS, and (c) synchronous rotation over the four
// centre cores at τ = 0.5 ms. traceStride > 0 records every traceStride-th
// slice of the centre-core thermal trace. The three executions share one
// platform and run serially: each needs a per-slice trace hook, which the
// sweep executor's RunSpec cells do not carry.
func Fig2(traceStride int) (*Fig2Result, error) {
	pins := map[sim.ThreadID]int{
		{Task: 0, Thread: 0}: 5,
		{Task: 0, Thread: 1}: 10,
	}
	slots := map[sim.ThreadID]int{
		{Task: 0, Thread: 0}: 0,
		{Task: 0, Thread: 1}: 2,
	}
	centre := []int{5, 6, 10, 9} // ring-walk order of the innermost ring

	rotSched, err := sched.NewRotationStatic(slots, centre, 0.5e-3)
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{}
	type policy struct {
		out   *Fig2Policy
		name  string
		sched sim.Scheduler
		dtm   bool
	}
	policies := []policy{
		{&res.None, "unmanaged-4GHz", sched.NewStatic(pins, 0), false},
		{&res.TSP, "tsp-dvfs", sched.NewTSPGovernor(pins, 70), true},
		{&res.Rotation, "sync-rotation-0.5ms", rotSched, true},
	}

	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(4, 4))
	if err != nil {
		return nil, err
	}
	b, err := workload.ByName("blackscholes")
	if err != nil {
		return nil, err
	}
	for _, p := range policies {
		task, err := workload.NewTask(0, b, 2, 0, 1)
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig()
		cfg.DTMEnabled = p.dtm
		s, err := sim.New(plat, cfg, p.sched, []*workload.Task{task})
		if err != nil {
			return nil, err
		}
		var trace []Fig2Sample
		if traceStride > 0 {
			slice := 0
			s.SetTrace(func(t float64, temps, watts, freqs []float64) {
				if slice%traceStride == 0 {
					maxT := temps[5]
					for _, c := range centre[1:] {
						if temps[c] > maxT {
							maxT = temps[c]
						}
					}
					trace = append(trace, Fig2Sample{Time: t, MaxTemp: maxT})
				}
				slice++
			})
		}
		out, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: fig2 %s: %w", p.name, err)
		}
		*p.out = Fig2Policy{
			Name:       p.name,
			Response:   out.AvgResponse,
			PeakTemp:   out.PeakTemp,
			Breaches:   out.PeakTemp > 70,
			Migrations: out.Migrations,
			Trace:      trace,
		}
	}
	return res, nil
}
