package hotpotato

// harness.go runs the paper's evaluation grids — Fig. 4(a), Fig. 4(b) and
// the ablations built from independent simulations — on the sweep executor.
// Each figure expands its grid into RunSpec cells, runs them with one
// ExecuteSweepCells call and reduces the results by cell index into the row
// types of internal/experiments. The measurements that are not simulation
// cells (Table I, the Fig. 2 traces, 3D, heterogeneity, overhead timing)
// stay in internal/experiments.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/stats"
)

// Row types of the cell-based experiment harnesses.
type (
	// Fig4bAggRow aggregates one Fig. 4(b) load level over several seeds.
	Fig4bAggRow = experiments.Fig4bAggRow
	// HybridRow compares HotPotato, its DVFS hybrid and PCMig on one benchmark.
	HybridRow = experiments.HybridRow
	// BaselineRow is one policy of the cross-policy ladder.
	BaselineRow = experiments.BaselineRow
	// NoiseSweepRow is one sensor-noise level of the robustness ablation.
	NoiseSweepRow = experiments.NoiseSweepRow
	// HeadroomSweepRow is one Δ setting of the headroom ablation.
	HeadroomSweepRow = experiments.HeadroomSweepRow
	// ContentionRow compares one benchmark with contention on and off.
	ContentionRow = experiments.ContentionRow
	// MigrationCostRow is one point of the migration-cost ablation.
	MigrationCostRow = experiments.MigrationCostRow
	// TauSweepRow is one rotation interval of the τ ablation.
	TauSweepRow = experiments.TauSweepRow
	// RingScopeRow compares one rotation scope.
	RingScopeRow = experiments.RingScopeRow
)

// runCells executes specs as one sweep on ExecuteSweepCells and returns
// their results in spec order. Each distinct PlatformConfig is built once,
// on first use, and shared by its cells: platforms are immutable. Every
// cell runs even after another fails; the error returned is the
// lowest-index cell's, so it does not depend on the worker count.
func runCells(figure string, workers int, specs []RunSpec) ([]*Result, error) {
	type platform struct {
		once sync.Once
		plat *Platform
		err  error
	}
	plats := map[PlatformConfig]*platform{}
	cells := make([]SweepCell, len(specs))
	for i, s := range specs {
		s = s.WithDefaults()
		cells[i] = SweepCell{Index: i, Spec: s}
		if plats[s.Platform] == nil {
			plats[s.Platform] = &platform{}
		}
	}
	run := func(ctx context.Context, cell SweepCell) (*Result, bool, error) {
		p := plats[cell.Spec.Platform]
		p.once.Do(func() { p.plat, p.err = NewPlatformFromConfig(cell.Spec.Platform) })
		if p.err != nil {
			return nil, false, fmt.Errorf("cell %d: %w", cell.Index, p.err)
		}
		res, err := ExecuteSpecOnPlatform(ctx, p.plat, cell.Spec)
		if err != nil {
			err = fmt.Errorf("cell %d: %w", cell.Index, err)
		}
		return res, false, err
	}
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	err := ExecuteSweepCells(context.Background(), cells, SweepOptions{Workers: workers, Run: run},
		func(r SweepCellResult) { results[r.Index], errs[r.Index] = r.Result, r.Err })
	if err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, fmt.Errorf("hotpotato: %s: %w", figure, err)
		}
	}
	return results, nil
}

// harnessCell is one cell of a chip-sized harness figure: the Table I chip
// at opts.GridEdge, DefaultSimConfig, the named policy at opts.TDTM, and w
// with every task's work scaled by opts.WorkScale.
func harnessCell(opts ExperimentOptions, policy string, w WorkloadSpec) RunSpec {
	e := opts.GridEdge
	return RunSpec{
		Platform:  DefaultPlatformConfig(e, e),
		Sim:       DefaultSimConfig(),
		Scheduler: SchedulerSpec{Name: policy, TDTM: opts.TDTM},
		Workload:  w.scaled(e*e, opts.WorkScale),
	}
}

// scaled returns w with each task's work multiplied by scale: w itself at
// scale 1, otherwise an explicit task list carrying each task's product
// work_scale. A workload that does not expand is returned as declared, so
// its cell reports the error.
func (w WorkloadSpec) scaled(numCores int, scale float64) WorkloadSpec {
	if scale == 1 {
		return w
	}
	specs, err := w.specs(numCores)
	if err != nil {
		return w
	}
	tasks := make([]TaskSpec, len(specs))
	for i, s := range specs {
		tasks[i] = TaskSpec{Bench: s.Bench.Name, Threads: s.Threads, Arrival: s.Arrival, WorkScale: s.WorkScale * scale}
	}
	return WorkloadSpec{Kind: WorkloadExplicit, Tasks: tasks}
}

// fullLoad is the Fig. 4(a) workload: vari-sized (2/4/8-thread) instances
// of bench filling every core of the opts chip, all arriving at t = 0.
func fullLoad(opts ExperimentOptions, bench string) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadHomogeneous, Bench: bench,
		TotalThreads: opts.GridEdge * opts.GridEdge, Sizes: []int{2, 4, 8}}
}

// Fig4a reproduces the homogeneous full-load evaluation: the chip is fully
// loaded with vari-sized instances of one benchmark (a closed system) and
// the makespans of HotPotato and PCMig are compared. The 8 benchmarks × 2
// schedulers = 16 cells run over opts.Workers; rows come back in Fig. 4(a)
// benchmark order and are bit-identical at any worker count.
func Fig4a(opts ExperimentOptions) ([]Fig4aRow, error) {
	opts = opts.WithDefaults()
	bs := PARSEC()
	var specs []RunSpec
	for _, b := range bs {
		for _, policy := range []string{"hotpotato", "pcmig"} {
			specs = append(specs, harnessCell(opts, policy, fullLoad(opts, b.Name)))
		}
	}
	res, err := runCells("fig4a", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4aRow, len(bs))
	for i, b := range bs {
		hp, pc := res[2*i], res[2*i+1]
		rows[i] = Fig4aRow{
			Benchmark:          b.Name,
			HotPotatoMakespan:  hp.Makespan,
			PCMigMakespan:      pc.Makespan,
			NormalizedMakespan: hp.Makespan / pc.Makespan,
			SpeedupPercent:     (pc.Makespan - hp.Makespan) / pc.Makespan * 100,
			HotPotatoPeak:      hp.PeakTemp,
			PCMigPeak:          pc.PeakTemp,
			HotPotatoEnergy:    hp.EnergyJ,
			PCMigEnergy:        pc.EnergyJ,
		}
	}
	return rows, nil
}

// fig4bPairs runs the HotPotato/PCMig pair for every (seed, rate) cell of
// the heterogeneous evaluation as one sweep and returns the rows indexed
// [seed][rate].
func fig4bPairs(opts ExperimentOptions, rates []float64, taskCount int, seeds []int64) ([][]Fig4bRow, error) {
	var specs []RunSpec
	for _, seed := range seeds {
		for _, rate := range rates {
			w := WorkloadSpec{Kind: WorkloadRandom, Count: taskCount, Rate: rate, Seed: seed}
			specs = append(specs, harnessCell(opts, "hotpotato", w), harnessCell(opts, "pcmig", w))
		}
	}
	res, err := runCells("fig4b", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	out := make([][]Fig4bRow, len(seeds))
	for si := range seeds {
		out[si] = make([]Fig4bRow, len(rates))
		for ri, rate := range rates {
			cell := si*len(rates) + ri
			hp, pc := res[2*cell], res[2*cell+1]
			out[si][ri] = Fig4bRow{
				ArrivalRate:       rate,
				HotPotatoResponse: hp.AvgResponse,
				PCMigResponse:     pc.AvgResponse,
				SpeedupPercent:    (pc.AvgResponse - hp.AvgResponse) / pc.AvgResponse * 100,
			}
		}
	}
	return out, nil
}

// Fig4b reproduces the heterogeneous evaluation: a random taskCount-task
// (default 20) PARSEC mix arrives as a Poisson process at each of the given
// rates (an open system under varying load), and the mean response times
// of HotPotato and PCMig are compared. Deterministic for a fixed seed at
// any worker count.
func Fig4b(opts ExperimentOptions, rates []float64, taskCount int, seed int64) ([]Fig4bRow, error) {
	opts = opts.WithDefaults()
	if taskCount <= 0 {
		taskCount = 20
	}
	perSeed, err := fig4bPairs(opts, rates, taskCount, []int64{seed})
	if err != nil {
		return nil, err
	}
	return perSeed[0], nil
}

// Fig4bMultiSeed repeats the heterogeneous comparison over several random
// workloads and reports the mean speedup with a 95 % confidence interval —
// the statistically honest form of Fig. 4(b). All seeds × rates ×
// schedulers run as one sweep; aggregation follows (seed, rate) order, so
// the output is bit-identical at any worker count.
func Fig4bMultiSeed(opts ExperimentOptions, rates []float64, taskCount int, seeds []int64) ([]Fig4bAggRow, error) {
	opts = opts.WithDefaults()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("hotpotato: fig4b needs at least one seed")
	}
	if taskCount <= 0 {
		taskCount = 20
	}
	perSeed, err := fig4bPairs(opts, rates, taskCount, seeds)
	if err != nil {
		return nil, err
	}
	out := make([]Fig4bAggRow, 0, len(rates))
	for ri, rate := range rates {
		speedups := make([]float64, len(seeds))
		hps := make([]float64, len(seeds))
		pcs := make([]float64, len(seeds))
		for si := range seeds {
			r := perSeed[si][ri]
			speedups[si] = r.SpeedupPercent
			hps[si] = r.HotPotatoResponse
			pcs[si] = r.PCMigResponse
		}
		out = append(out, Fig4bAggRow{
			ArrivalRate:   rate,
			MeanSpeedup:   stats.Mean(speedups),
			SpeedupCI95:   stats.ConfidenceInterval95(speedups),
			MeanHotPotato: stats.Mean(hps),
			MeanPCMig:     stats.Mean(pcs),
			Seeds:         len(seeds),
		})
	}
	return out, nil
}

// Hybrid runs the paper's §VII future work — synchronous rotation unified
// with DVFS — against pure HotPotato and PCMig on hot full-load workloads.
// The hybrid's promise: the thermal excursions pure rotation rides out via
// hardware DTM are instead absorbed by a gentle frequency trim. Rows keep
// the input benchmark order.
func Hybrid(opts ExperimentOptions, benchmarks []string) ([]HybridRow, error) {
	opts = opts.WithDefaults()
	policies := []string{"hotpotato", "hotpotato-dvfs", "pcmig"}
	var specs []RunSpec
	for _, name := range benchmarks {
		for _, policy := range policies {
			specs = append(specs, harnessCell(opts, policy, fullLoad(opts, name)))
		}
	}
	res, err := runCells("hybrid", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]HybridRow, len(benchmarks))
	for bi, name := range benchmarks {
		hp, hy, pc := res[3*bi], res[3*bi+1], res[3*bi+2]
		rows[bi] = HybridRow{
			Benchmark:    name,
			HotPotato:    hp.Makespan,
			Hybrid:       hy.Makespan,
			PCMig:        pc.Makespan,
			HotPotatoDTM: hp.DTMTime,
			HybridDTM:    hy.DTMTime,
		}
	}
	return rows, nil
}

// Baselines runs the full policy ladder on one hot full-load workload:
// asynchronous migration, a naive reactive DVFS governor, PCMig, HotPotato,
// and the rotation+DVFS hybrid — the one-table summary of the repo's
// comparative landscape. The ladder keeps its fixed order.
func Baselines(opts ExperimentOptions, benchName string) ([]BaselineRow, error) {
	opts = opts.WithDefaults()
	ladder := []struct{ label, policy string }{
		{"async-migration (no DVFS)", "async-migration"},
		{"reactive (ondemand-style)", "reactive"},
		{"pcmig", "pcmig"},
		{"hotpotato", "hotpotato"},
		{"hotpotato-dvfs", "hotpotato-dvfs"},
	}
	specs := make([]RunSpec, len(ladder))
	for i, l := range ladder {
		specs[i] = harnessCell(opts, l.policy, fullLoad(opts, benchName))
	}
	res, err := runCells("baselines", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]BaselineRow, len(ladder))
	for i, r := range res {
		rows[i] = BaselineRow{
			Policy:     ladder[i].label,
			Makespan:   r.Makespan,
			PeakTemp:   r.PeakTemp,
			DTMTime:    r.DTMTime,
			Migrations: r.Migrations,
			EnergyJ:    r.EnergyJ,
		}
	}
	return rows, nil
}

// NoiseSweep reruns a hot full-load workload under HotPotato with
// increasing scheduler-visible thermal-sensor noise. HotPotato leans on the
// Algorithm 1 model rather than raw sensor values, so moderate noise should
// cost little. Every cell seeds its own noise source, so rows are
// deterministic.
func NoiseSweep(levels []float64, opts ExperimentOptions) ([]NoiseSweepRow, error) {
	opts = opts.WithDefaults()
	specs := make([]RunSpec, len(levels))
	for i, level := range levels {
		specs[i] = harnessCell(opts, "hotpotato", fullLoad(opts, "blackscholes"))
		specs[i].Sim.SensorNoiseStdDev = level
		specs[i].Sim.SensorNoiseSeed = 77
	}
	res, err := runCells("noise sweep", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]NoiseSweepRow, len(levels))
	for i, r := range res {
		rows[i] = NoiseSweepRow{NoiseStdDev: levels[i], Makespan: r.Makespan, PeakTemp: r.PeakTemp, DTMTime: r.DTMTime}
	}
	return rows, nil
}

// HeadroomSweep varies HotPotato's Δ (paper default 1 °C; a Δ of 0 keeps
// it): a larger margin buys fewer DTM excursions at the cost of more
// conservative scheduling.
func HeadroomSweep(deltas []float64, opts ExperimentOptions) ([]HeadroomSweepRow, error) {
	opts = opts.WithDefaults()
	specs := make([]RunSpec, len(deltas))
	for i, delta := range deltas {
		specs[i] = harnessCell(opts, "hotpotato", fullLoad(opts, "blackscholes"))
		specs[i].Scheduler.Headroom = delta
	}
	res, err := runCells("headroom sweep", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]HeadroomSweepRow, len(deltas))
	for i, r := range res {
		rows[i] = HeadroomSweepRow{Delta: deltas[i], Makespan: r.Makespan, PeakTemp: r.PeakTemp, DTMEvents: r.DTMEvents}
	}
	return rows, nil
}

// Contention reruns the headline comparison with the bandwidth model
// enabled for the memory-heavy benchmarks: the HotPotato-vs-PCMig
// conclusion must survive shared-resource queueing. Each benchmark runs
// three cells: HotPotato without contention, HotPotato with it, and PCMig
// with it.
func Contention(opts ExperimentOptions, benchmarks []string) ([]ContentionRow, error) {
	opts = opts.WithDefaults()
	var specs []RunSpec
	for _, name := range benchmarks {
		off := harnessCell(opts, "hotpotato", fullLoad(opts, name))
		on := off
		on.Sim.NoCContention = true
		pcOn := harnessCell(opts, "pcmig", fullLoad(opts, name))
		pcOn.Sim.NoCContention = true
		specs = append(specs, off, on, pcOn)
	}
	res, err := runCells("contention", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ContentionRow, len(benchmarks))
	for bi, name := range benchmarks {
		hpOff, hpOn, pcOn := res[3*bi], res[3*bi+1], res[3*bi+2]
		rows[bi] = ContentionRow{
			Benchmark:         name,
			HotPotatoOff:      hpOff.Makespan,
			HotPotatoOn:       hpOn.Makespan,
			PCMigOn:           pcOn.Makespan,
			SpeedupOnPercent:  (pcOn.Makespan - hpOn.Makespan) / pcOn.Makespan * 100,
			ContentionCostPct: (hpOn.Makespan/hpOff.Makespan - 1) * 100,
		}
	}
	return rows, nil
}

// MigrationCostSweep rescales the per-migration OS overhead and reruns a
// hot homogeneous workload: HotPotato's advantage must shrink as migrations
// get more expensive — the observation the whole paper rests on (cheap
// S-NUCA migrations) run in reverse. Each scale is its own platform.
func MigrationCostSweep(scales []float64, opts ExperimentOptions) ([]MigrationCostRow, error) {
	opts = opts.WithDefaults()
	var specs []RunSpec
	for _, scale := range scales {
		for _, policy := range []string{"hotpotato", "pcmig"} {
			s := harnessCell(opts, policy, fullLoad(opts, "blackscholes"))
			s.Platform.Cache.OSOverhead *= scale
			specs = append(specs, s)
		}
	}
	res, err := runCells("migration cost sweep", opts.Workers, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]MigrationCostRow, len(scales))
	for i, scale := range scales {
		hp, pc := res[2*i].Makespan, res[2*i+1].Makespan
		rows[i] = MigrationCostRow{CostScale: scale, HotPotato: hp, PCMig: pc, SpeedupPercent: (pc - hp) / pc * 100}
	}
	return rows, nil
}

// motivationalCell is the Fig. 2(c) set-up on the 16-core chip: a
// two-threaded bench rotating over cores every tau seconds, thread 0 in
// slot 0 and thread 1 half a cycle away.
func motivationalCell(bench string, workScale float64, cores []int, tau float64) RunSpec {
	return RunSpec{
		Platform: DefaultPlatformConfig(4, 4),
		Sim:      DefaultSimConfig(),
		Scheduler: SchedulerSpec{Name: "rotation", Tau: tau, Cores: cores, Pins: map[ThreadID]int{
			{Task: 0, Thread: 0}: 0,
			{Task: 0, Thread: 1}: len(cores) / 2,
		}},
		Workload: WorkloadSpec{Kind: WorkloadExplicit, Tasks: []TaskSpec{{Bench: bench, Threads: 2, WorkScale: workScale}}},
	}
}

// TauSweep runs the Fig. 2(c) scenario at several rotation intervals with
// DTM off, exposing the trade-off Algorithm 2 navigates: faster rotation
// averages temperature better but pays more migration overhead. Rows keep
// the input order.
func TauSweep(taus []float64) ([]TauSweepRow, error) {
	specs := make([]RunSpec, len(taus))
	for i, tau := range taus {
		specs[i] = motivationalCell("blackscholes", 1, []int{5, 6, 10, 9}, tau)
		specs[i].Sim.DTMEnabled = false // expose the raw thermal consequence of τ
	}
	res, err := runCells("tau sweep", 0, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]TauSweepRow, len(taus))
	for i, r := range res {
		rows[i] = TauSweepRow{Tau: taus[i], Response: r.AvgResponse, PeakTemp: r.PeakTemp, Migrations: r.Migrations}
	}
	return rows, nil
}

// RingScope contrasts HotPotato's within-ring rotation against rotating the
// same two memory-bound threads around the whole chip perimeter: whole-chip
// rotation visits high-AMD cores (slower LLC) without a thermal advantage
// worth the cost — the reason HotPotato confines rotation to AMD rings.
func RingScope() ([]RingScopeRow, error) {
	var outer []int
	for _, ring := range floorplan.MustNew(4, 4, 0.0009).Rings() {
		if len(ring.Cores) > len(outer) {
			outer = ring.Cores
		}
	}
	scopes := []struct {
		name  string
		cores []int
	}{
		{"inner-ring (HotPotato)", []int{5, 6, 10, 9}},
		{"outer-ring", outer},
	}
	specs := make([]RunSpec, len(scopes))
	for i, sc := range scopes {
		specs[i] = motivationalCell("streamcluster", 0.5, sc.cores, 0.5e-3)
	}
	res, err := runCells("ring scope", 0, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]RingScopeRow, len(scopes))
	for i, r := range res {
		rows[i] = RingScopeRow{Scope: scopes[i].name, Response: r.AvgResponse, PeakTemp: r.PeakTemp}
	}
	return rows, nil
}
