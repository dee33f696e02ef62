package hotpotato

// predict.go is the analytical-twin fast path over the RunSpec surface: it
// reduces an in-domain spec to the numeric case internal/twin predicts on,
// runs the simulator-as-oracle calibration that fits the twin, and exposes
// the glue the serving tier (POST /v1/predict), the sweep pruner, and the
// HotPotato pre-filter build on. The model is documented in
// docs/THEORY.md §"Surrogate model and error bounds"; docs/API.md
// documents the endpoint.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/matrix"
	"repro/internal/rotation"
	"repro/internal/sched"
	"repro/internal/twin"
	"repro/internal/workload"
)

// Twin model types, re-exported for callers of the prediction surface.
type (
	// TwinModel is the versioned, content-hashed calibration artifact
	// (TWIN_model.json; `hotpotato-sim -calibrate` regenerates it).
	TwinModel = twin.Model
	// TwinPrediction is the twin's answer for one run: three fields, each a
	// point estimate with a conservative confidence bound.
	TwinPrediction = twin.Prediction
	// TwinField is one prediction field (estimate, bound, conclusive).
	TwinField = twin.Field
)

// LoadTwinModel decodes and validates a calibration artifact; corrupt or
// truncated input is rejected with an error, never a panic.
func LoadTwinModel(data []byte) (*TwinModel, error) { return twin.Load(data) }

// LoadTwinModelFile is LoadTwinModel on a file path (the -twin-model flag).
func LoadTwinModelFile(path string) (*TwinModel, error) { return twin.LoadFile(path) }

// ErrTwinDomain reports that a spec lies outside the twin's calibrated
// domain: the surrogate only answers for specs it was fitted against
// (default-substrate platforms at a calibrated grid size, the static
// scheduler with an injective pinning, no NoC contention). Out-of-domain
// specs must run the full simulator.
var ErrTwinDomain = errors.New("hotpotato: spec outside the twin's calibrated domain")

// PredictSpec is the document POST /v1/predict accepts: exactly a RunSpec —
// the run to predict instead of simulate. It is a distinct type so the
// prediction surface can grow fields (e.g. requested percentiles) without
// touching the run document.
type PredictSpec struct {
	RunSpec
}

// twinCheckSpec verifies the declarative (platform-independent) part of the
// twin domain. spec must already carry defaults.
func twinCheckSpec(spec RunSpec) error {
	canon := DefaultPlatformConfig(spec.Platform.Width, spec.Platform.Height)
	p := spec.Platform
	p.Thermal.Solver = canon.Thermal.Solver // solver choice cannot change temperatures
	if p != canon {
		return fmt.Errorf("%w: platform deviates from the default substrates at %dx%d", ErrTwinDomain, spec.Platform.Width, spec.Platform.Height)
	}
	if spec.Scheduler.Name != "static" {
		return fmt.Errorf("%w: scheduler %q (only the static pinner is calibrated)", ErrTwinDomain, spec.Scheduler.Name)
	}
	if spec.Sim.NoCContention {
		return fmt.Errorf("%w: NoC contention model is not calibrated", ErrTwinDomain)
	}
	d := spec.Platform.Power.DVFS()
	if f := spec.Scheduler.Freq; f != 0 && (f < d.FMin || f > d.FMax) {
		return fmt.Errorf("%w: static frequency %g outside DVFS range", ErrTwinDomain, f)
	}
	return nil
}

// TwinCase reduces an in-domain spec to the twin's numeric case: the
// closed-form power fields and timing of the run. plat must be the platform
// spec.Platform describes; spec must already be defaulted and validated.
func TwinCase(plat *Platform, spec RunSpec) (twin.Case, error) {
	if err := twinCheckSpec(spec); err != nil {
		return twin.Case{}, err
	}
	taskSpecs, err := spec.Workload.specs(plat.NumCores())
	if err != nil {
		return twin.Case{}, err
	}
	tasks, err := Instantiate(taskSpecs)
	if err != nil {
		return twin.Case{}, err
	}
	schedSpec, err := spec.Scheduler.AutoPin(plat, tasks)
	if err != nil {
		return twin.Case{}, fmt.Errorf("%w: %v", ErrTwinDomain, err)
	}

	n := plat.NumCores()
	// The closed-form model needs one core per thread: with pin collisions
	// the threads would time-share and the timing model below is wrong.
	coreOf := make(map[ThreadID]int, len(schedSpec.Pins))
	taken := make(map[int]bool, len(schedSpec.Pins))
	for _, t := range tasks {
		for ti := 0; ti < t.Threads; ti++ {
			id := ThreadID{Task: t.ID, Thread: ti}
			core, ok := schedSpec.Pins[id]
			if !ok {
				return twin.Case{}, fmt.Errorf("%w: thread %v has no pin", ErrTwinDomain, id)
			}
			if core < 0 || core >= n {
				return twin.Case{}, fmt.Errorf("%w: thread %v pinned to core %d of %d", ErrTwinDomain, id, core, n)
			}
			if taken[core] {
				return twin.Case{}, fmt.Errorf("%w: core %d pinned twice (threads would time-share)", ErrTwinDomain, core)
			}
			taken[core] = true
			coreOf[id] = core
		}
	}

	freq := schedSpec.Freq
	if freq == 0 {
		freq = plat.Power.DVFS().FMax
	}
	idle := plat.Power.IdleWatts

	hot := make([]float64, n)
	energy := make([]float64, n) // above-idle watt-seconds per core
	for i := range hot {
		hot[i] = idle
	}

	// Closed-form timeline, mirroring the engine's interval model without
	// slice quantization: each phase splits its instruction budget evenly
	// over its active threads, each thread retires at its core's
	// time-per-instruction, and the barrier waits for the slowest.
	horizon := 0.0
	for _, t := range tasks {
		params := t.Bench.Perf()
		now := t.Arrival
		for _, ph := range t.Bench.Phases {
			active := twinActiveThreads(t, ph)
			budget := t.Bench.Work * t.WorkScale * ph.Frac / float64(len(active))
			phaseDur := 0.0
			for _, ti := range active {
				core := coreOf[ThreadID{Task: t.ID, Thread: ti}]
				tpi := plat.Perf.TimePerInstr(params, core, freq)
				busy, stall := plat.Perf.Fractions(params, core, freq)
				execWatts := plat.Power.IntervalPower(t.Bench.NominalWatts, freq, busy, stall)
				dur := budget * tpi
				energy[core] += (execWatts - idle) * dur
				if execWatts > hot[core] {
					hot[core] = execWatts
				}
				if dur > phaseDur {
					phaseDur = dur
				}
			}
			now += phaseDur
		}
		if now > horizon {
			horizon = now
		}
	}
	if !(horizon > 0) {
		return twin.Case{}, fmt.Errorf("%w: workload has no work", ErrTwinDomain)
	}

	avg := make([]float64, n)
	for i := range avg {
		avg[i] = idle + energy[i]/horizon
	}

	// The exact steady rises of the two power fields (closed-form linear
	// solves — microseconds, not a transient integration) feed the fitted
	// transient model as its strongest regressors.
	ambient := plat.Thermal.Ambient()
	shd := plat.Thermal.MaxCoreTemp(plat.Thermal.SteadyState(hot)) - ambient
	sad := plat.Thermal.MaxCoreTemp(plat.Thermal.SteadyState(avg)) - ambient

	c := twin.Case{
		Width:           plat.FP.Width,
		Height:          plat.FP.Height,
		Ambient:         ambient,
		HotPower:        hot,
		AvgPower:        avg,
		SteadyHotDeltaC: shd,
		SteadyAvgDeltaC: sad,
		Horizon:         horizon,
		RawMakespan:     horizon,
	}
	if err := c.Validate(); err != nil {
		return twin.Case{}, err
	}
	return c, nil
}

// twinActiveThreads mirrors the workload package's phase activity rule:
// serial phases (and single-threaded tasks) run the master, parallel phases
// run the workers 1..T-1.
func twinActiveThreads(t *Task, ph workload.Phase) []int {
	if ph.Kind == workload.Serial || t.Threads == 1 {
		return []int{0}
	}
	out := make([]int, t.Threads-1)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TwinPredict evaluates the twin on one spec: defaults, validation, domain
// check, feature extraction, model evaluation, and the run-level
// conclusiveness gates the bare model cannot know about — hardware DTM (a
// tripped DTM throttles the run, so a transient estimate that cannot rule
// the trip out is inconclusive, as is the makespan) and Sim.MaxTime (a run
// that may hit the timeout has no honest makespan prediction). plat must be
// the platform spec.Platform describes.
func TwinPredict(model *TwinModel, plat *Platform, spec RunSpec) (TwinPrediction, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return TwinPrediction{}, err
	}
	c, err := TwinCase(plat, spec)
	if err != nil {
		return TwinPrediction{}, err
	}
	pred, err := model.Predict(c)
	if err != nil {
		return TwinPrediction{}, fmt.Errorf("%w: %v", ErrTwinDomain, err)
	}
	if spec.Sim.DTMEnabled {
		// The calibration runs DTM-free physics; a run whose predicted peak
		// cannot be bounded under the trip temperature may throttle, which
		// invalidates both the transient and the makespan estimates.
		if pred.TransientPeakC.Estimate+pred.TransientPeakC.Bound >= spec.Sim.TDTM {
			pred.TransientPeakC.Conclusive = false
			pred.MakespanS.Conclusive = false
		}
	}
	if pred.MakespanS.Estimate+pred.MakespanS.Bound >= spec.Sim.MaxTime {
		pred.MakespanS.Conclusive = false
		pred.TransientPeakC.Conclusive = false
	}
	return pred, nil
}

// TwinCalibration parameterizes CalibrateTwin. The zero value is not usable;
// start from DefaultTwinCalibration.
type TwinCalibration struct {
	// Seed drives the whole design grid. Identical seeds (and counts) yield
	// byte-identical artifacts on every OS and architecture.
	Seed int64
	// Samples is the number of full-simulation oracle samples per bucket.
	Samples int
	// RingSamples is the number of Algorithm 1 oracle samples per bucket.
	RingSamples int
	// Buckets lists the calibrated grid sizes.
	Buckets [][2]int
}

// DefaultTwinCalibration is the committed artifact's recipe: the 4×4
// motivational and 8×8 evaluation platforms of the paper. Sample counts past
// the top power-of-two fit level still widen the calibration envelope (the
// conclusive domain), which is why Samples exceeds 128.
func DefaultTwinCalibration() TwinCalibration {
	return TwinCalibration{
		Seed:        1,
		Samples:     192,
		RingSamples: 320,
		Buckets:     [][2]int{{4, 4}, {8, 8}},
	}
}

// CalibrateTwin fits the analytical twin against the full simulator over a
// seeded design grid: per bucket, Samples random in-domain RunSpecs are
// simulated end-to-end (the transient/makespan oracle) and their worst-case
// power fields solved exactly (the steady-state oracle), plus RingSamples
// random ring rotations evaluated with Algorithm 1 (the HotPotato oracle).
// The fit itself is deterministic least squares (internal/twin), so the
// returned model — including its content hash — is a pure function of the
// calibration parameters.
func CalibrateTwin(ctx context.Context, cal TwinCalibration) (*TwinModel, error) {
	if cal.Samples < 1 || cal.RingSamples < 1 || len(cal.Buckets) == 0 {
		return nil, fmt.Errorf("hotpotato: calibration needs positive sample counts and at least one bucket")
	}
	model := &TwinModel{
		Version: twin.ModelVersion,
		Seed:    cal.Seed,
		Buckets: make(map[string]twin.BucketModel, len(cal.Buckets)),
	}
	for _, b := range cal.Buckets {
		w, h := b[0], b[1]
		bucket, err := calibrateBucket(ctx, cal.Seed, w, h, cal.Samples, cal.RingSamples)
		if err != nil {
			return nil, fmt.Errorf("hotpotato: calibrating bucket %s: %w", twin.BucketKey(w, h), err)
		}
		model.Buckets[twin.BucketKey(w, h)] = bucket
	}
	hash, err := model.ComputeHash()
	if err != nil {
		return nil, err
	}
	model.Hash = hash
	return model, nil
}

// calibrateBucket gathers the oracle samples of one grid size and fits them.
func calibrateBucket(ctx context.Context, seed int64, width, height, samples, ringSamples int) (twin.BucketModel, error) {
	plat, err := NewPlatform(width, height)
	if err != nil {
		return twin.BucketModel{}, err
	}
	// Independent streams for the two sample sequences: growing one density
	// must not shift the other's draws, or the per-axis bound monotonicity
	// (and prefix reproducibility) breaks.
	bucketSeed := seed + int64(width)*1009 + int64(height)*9176
	rng := rand.New(rand.NewSource(bucketSeed))
	ringRng := rand.New(rand.NewSource(bucketSeed + 7919))

	oracle := make([]twin.Sample, 0, samples)
	for i := 0; i < samples; i++ {
		spec := twinDesignSpec(rng, width, height)
		s, err := twinOracleSample(ctx, plat, spec)
		if err != nil {
			return twin.BucketModel{}, fmt.Errorf("sample %d: %w", i, err)
		}
		oracle = append(oracle, s)
	}

	ringPeak := newTwinRingOracle(plat)
	steadyPeak := twinSteadyPeakFunc(plat)
	ringOracle := make([]twin.RingSample, 0, ringSamples)
	for i := 0; i < ringSamples; i++ {
		rc := twinDesignRing(ringRng, plat, steadyPeak)
		peak, err := ringPeak(rc.Tau, rc.Base, rc.RingCores, rc.SlotWatts)
		if err != nil {
			return twin.BucketModel{}, fmt.Errorf("ring sample %d: %w", i, err)
		}
		ringOracle = append(ringOracle, twin.RingSample{Case: rc, PeakC: peak})
	}

	return twin.FitBucket(width, height, plat.Thermal.Ambient(), oracle, ringOracle)
}

// twinRingOracle is the ring model's calibration oracle: Algorithm 1's ring
// evaluation as an eigenspace walk over δ epochs, the form
// rotation.RingEvaluator had before it moved to response tables. The two
// agree to ~1e-13 K, but the committed TWIN_model.json (and the /v1/predict
// goldens hashed from it) were fitted to this walk's exact bits, so
// calibration keeps it. ROADMAP item 3 deletes it together with the ring
// model.
type twinRingOracle struct {
	lambda []float64
	wT     *matrix.Dense // core columns of W = V⁻¹B⁻¹ as rows, n×N
	vCore  *matrix.Dense // core rows of V, n×N
	amb    float64

	decay, yBase, z, u, coreT []float64
	y                         [][]float64
}

// newTwinRingOracle returns the ring oracle of a platform: the walk on a
// dense (eigenbasis) model, the response-table evaluator on a sparse one,
// which has no eigenbasis to walk.
func newTwinRingOracle(plat *Platform) func(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	m := plat.Thermal
	eig := m.Eigen()
	if eig == nil {
		return rotation.NewCalculator(m).NewRingEvaluator().PeakRingRotation
	}
	N, n := m.NumNodes(), m.NumCores()
	wFull := eig.VInv.Mul(m.BInv())
	o := &twinRingOracle{
		lambda: eig.Lambda,
		wT:     matrix.New(n, N),
		vCore:  matrix.New(n, N),
		amb:    m.Ambient(),
		decay:  make([]float64, N),
		yBase:  make([]float64, N),
		z:      make([]float64, N),
		u:      make([]float64, N),
		coreT:  make([]float64, n),
	}
	for j := 0; j < n; j++ {
		for k := 0; k < N; k++ {
			o.wT.Set(j, k, wFull.At(k, j))
			o.vCore.Set(j, k, eig.V.At(j, k))
		}
	}
	return o.peak
}

// peak returns the steady-periodic peak core temperature (°C) of the ring
// rotation, as rotation.RingEvaluator.PeakRingRotation defines it.
func (o *twinRingOracle) peak(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	N := len(o.u)
	size := len(ringCores)
	if tau <= 0 || size == 0 || len(slotWatts) != size || len(base) != len(o.coreT) {
		return 0, fmt.Errorf("hotpotato: invalid twin ring case (τ %g, %d cores, %d slots)", tau, size, len(slotWatts))
	}
	for k, l := range o.lambda {
		o.decay[k] = math.Exp(-l * tau)
	}
	for k := range o.yBase {
		o.yBase[k] = 0
	}
	for j, w := range base {
		if w == 0 {
			continue
		}
		row := o.wT.RowView(j)
		for k := 0; k < N; k++ {
			o.yBase[k] += w * row[k]
		}
	}
	for len(o.y) < size {
		o.y = append(o.y, make([]float64, N))
	}
	y := o.y[:size]
	for ep := 0; ep < size; ep++ {
		ye := y[ep]
		copy(ye, o.yBase)
		for i, watts := range slotWatts {
			core := ringCores[(i+ep)%size]
			d := watts - base[core]
			if d == 0 {
				continue
			}
			row := o.wT.RowView(core)
			for k := 0; k < N; k++ {
				ye[k] += d * row[k]
			}
		}
	}
	decay, z, u := o.decay, o.z, o.u
	for k := range z {
		z[k] = 0
	}
	for ep := 0; ep < size; ep++ {
		for k := 0; k < N; k++ {
			z[k] = decay[k]*z[k] + (1-decay[k])*y[ep][k]
		}
	}
	for k := 0; k < N; k++ {
		denom := 1 - math.Exp(-o.lambda[k]*tau*float64(size))
		if denom <= 0 {
			return 0, fmt.Errorf("hotpotato: non-decaying eigenmode %d", k)
		}
		u[k] = z[k] / denom
	}
	peak := math.Inf(-1)
	for ep := 0; ep < size; ep++ {
		for k := 0; k < N; k++ {
			u[k] = decay[k]*u[k] + (1-decay[k])*y[ep][k]
		}
		o.vCore.MulVecTo(o.coreT, u)
		if t := matrix.VecMax(o.coreT); t > peak {
			peak = t
		}
	}
	return peak + o.amb, nil
}

// twinOracleSample runs one calibration spec against the full simulator and
// the exact steady-state solver.
func twinOracleSample(ctx context.Context, plat *Platform, spec RunSpec) (twin.Sample, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return twin.Sample{}, err
	}
	c, err := TwinCase(plat, spec)
	if err != nil {
		return twin.Sample{}, err
	}
	res, err := ExecuteSpecOnPlatform(ctx, plat, spec)
	if err != nil {
		return twin.Sample{}, err
	}
	steady := plat.Thermal.SteadyState(c.HotPower)
	return twin.Sample{
		Case: c,
		Obs: twin.Observation{
			SteadyTemps:    steady,
			SteadyPeakC:    plat.Thermal.MaxCoreTemp(steady),
			TransientPeakC: res.PeakTemp,
			MakespanS:      res.Makespan,
		},
	}, nil
}

// twinDesignSpec draws one random in-domain RunSpec: 1–3 explicit tasks with
// random benchmarks, thread counts, arrivals and (small) work scales, pinned
// injectively onto random cores at a random DVFS level, DTM off so the
// oracle physics stay linear. The twin_diff_test.go property suite draws
// held-out specs from the same generator at different seeds.
func twinDesignSpec(rng *rand.Rand, width, height int) RunSpec {
	n := width * height
	benches := workload.PARSEC()
	numTasks := 1 + rng.Intn(3)

	maxThreads := 4
	if n >= 64 {
		maxThreads = 8
	}
	tasks := make([]TaskSpec, 0, numTasks)
	total := 0
	for t := 0; t < numTasks; t++ {
		threads := 1 + rng.Intn(maxThreads)
		if total+threads > n {
			threads = n - total
		}
		if threads < 1 {
			break
		}
		total += threads
		tasks = append(tasks, TaskSpec{
			Bench:     benches[rng.Intn(len(benches))].Name,
			Threads:   threads,
			Arrival:   float64(rng.Intn(4)) * 0.5e-3,
			WorkScale: 0.02 + 0.10*rng.Float64(), // a few ms of simulated time
		})
	}

	pins := make(map[ThreadID]int, total)
	perm := rng.Perm(n)
	idx := 0
	for taskID, t := range tasks {
		for ti := 0; ti < t.Threads; ti++ {
			pins[ThreadID{Task: taskID, Thread: ti}] = perm[idx]
			idx++
		}
	}

	d := DefaultPlatformConfig(width, height).Power.DVFS()
	levels := d.Levels()
	freq := levels[rng.Intn(len(levels))]

	sim := DefaultSimConfig()
	sim.DTMEnabled = false

	return RunSpec{
		Platform: DefaultPlatformConfig(width, height),
		Sim:      sim,
		Scheduler: SchedulerSpec{
			Name: "static",
			Freq: freq,
			Pins: pins,
		},
		Workload: WorkloadSpec{Kind: WorkloadExplicit, Tasks: tasks},
	}
}

// twinSteadyPeakFunc returns the exact steady-peak evaluator of a platform:
// the hottest core's steady-state rise (K) of a per-core power field, via the
// cached core-influence matrix. The returned closure allocates nothing per
// call and is confined to one goroutine (it reuses a scratch vector).
func twinSteadyPeakFunc(plat *Platform) twin.SteadyPeakFunc {
	infl := plat.Thermal.CoreInfluence()
	rise := make([]float64, plat.NumCores())
	return func(field []float64) float64 {
		infl.MulVecTo(rise, field)
		return matrix.VecMax(rise)
	}
}

// twinDesignRing draws one random ring-rotation case in HotPotato's input
// distribution: a per-ring uniform background, one occupied ring carrying a
// mix of idle and busy slots, and a τ from the scheduler's adaptation range.
// steadyPeak supplies the exact quasi-steady rise the ring model anchors on.
func twinDesignRing(rng *rand.Rand, plat *Platform, steadyPeak twin.SteadyPeakFunc) twin.RingCase {
	idle := plat.Power.IdleWatts
	rings := plat.FP.Rings()
	n := plat.NumCores()

	base := make([]float64, n)
	for _, ring := range rings {
		mean := idle
		if rng.Float64() < 0.7 {
			mean = idle + rng.Float64()*5
		}
		for _, c := range ring.Cores {
			base[c] = mean
		}
	}

	ring := rings[rng.Intn(len(rings))]
	slots := make([]float64, len(ring.Cores))
	for i := range slots {
		slots[i] = idle
		if rng.Float64() < 0.6 {
			slots[i] = idle + 1 + rng.Float64()*8
		}
	}

	tau := 0.125e-3 * float64(int(1)<<rng.Intn(6)) // 0.125–4 ms, HotPotato's range

	field := make([]float64, n)
	sfdMax := twin.MaxInstantSteadyDelta(field, base, ring.Cores, slots, steadyPeak)
	mean := 0.0
	for _, w := range slots {
		mean += w
	}
	mean /= float64(len(slots))
	copy(field, base)
	for _, c := range ring.Cores {
		field[c] = mean
	}

	return twin.RingCase{
		Width:             plat.FP.Width,
		Height:            plat.FP.Height,
		Ambient:           plat.Thermal.Ambient(),
		Tau:               tau,
		Base:              base,
		RingCores:         ring.Cores,
		SlotWatts:         slots,
		SteadyFieldDeltaC: steadyPeak(field),
		SteadyMaxDeltaC:   sfdMax,
	}
}

// NewTwinSweepPruner builds the sweep-cell pruner behind a sweep's
// prune_above_temp threshold (see SweepOptions.Prune): a cell is pruned only
// when the twin's transient-peak interval [est−bound, est+bound] lies
// entirely on one side of the threshold — "above" when even the optimistic
// end exceeds it, "below" when even the pessimistic end stays under it.
// Out-of-domain cells, uncalibrated grid sizes, and inconclusive predictions
// all return ok=false, so those cells simulate as usual. The returned func
// is safe for concurrent calls (predictions are serialized internally; each
// costs microseconds against the cells' full simulations).
func NewTwinSweepPruner(model *TwinModel, threshold float64) func(ctx context.Context, cell SweepCell) (PruneDecision, bool) {
	var mu sync.Mutex
	plats := make(map[[2]int]*Platform)
	return func(ctx context.Context, cell SweepCell) (PruneDecision, bool) {
		w, h := cell.Spec.Platform.Width, cell.Spec.Platform.Height
		if _, ok := model.Buckets[twin.BucketKey(w, h)]; !ok {
			return PruneDecision{}, false
		}
		mu.Lock()
		defer mu.Unlock()
		plat, ok := plats[[2]int{w, h}]
		if !ok {
			var err error
			plat, err = NewPlatform(w, h)
			if err != nil {
				return PruneDecision{}, false
			}
			plats[[2]int{w, h}] = plat
		}
		pred, err := TwinPredict(model, plat, cell.Spec)
		if err != nil || !pred.TransientPeakC.Conclusive {
			return PruneDecision{}, false
		}
		est, bound := pred.TransientPeakC.Estimate, pred.TransientPeakC.Bound
		switch {
		case est-bound >= threshold:
			return PruneDecision{Verdict: "above", PeakC: est, BoundC: bound}, true
		case est+bound < threshold:
			return PruneDecision{Verdict: "below", PeakC: est, BoundC: bound}, true
		default:
			return PruneDecision{}, false
		}
	}
}

// NewTwinRingEstimator builds the HotPotato pre-filter for plat (see
// sched.RingPeakEstimator and WithTwinPreFilter): the model's bucket for the
// platform's grid size plus the platform's exact steady-peak solve. Like the
// exact ring evaluator it replaces, the estimator is confined to one
// goroutine.
func NewTwinRingEstimator(model *TwinModel, plat *Platform) (sched.RingPeakEstimator, error) {
	return twin.NewRingEstimator(model, plat.FP.Width, plat.FP.Height, twinSteadyPeakFunc(plat))
}

// WithTwinPreFilter returns the HotPotato option installing a twin-backed
// Decide pre-filter: per-ring Algorithm 1 evaluations whose outcome the twin
// bounds conclusively on one side of the decision threshold are answered by
// the twin; everything else falls back to the exact evaluation, keeping
// scheduling decisions bit-identical to stock HotPotato.
func WithTwinPreFilter(e sched.RingPeakEstimator) HotPotatoOption {
	return sched.WithRingEstimator(e)
}
