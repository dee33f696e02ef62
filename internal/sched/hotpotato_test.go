package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func TestHotPotatoNameAndAccessors(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	hp := NewHotPotato(plat, 70, WithRotationInterval(1e-3), WithHeadroom(2))
	if hp.Name() != "hotpotato" {
		t.Errorf("name = %q", hp.Name())
	}
	if hp.Tau() != 1e-3 {
		t.Errorf("tau = %v", hp.Tau())
	}
	if !hp.Rotating() {
		t.Error("rotation disabled at start")
	}
}

func TestHotPotatoPlacesColdThreadInnermost(t *testing.T) {
	// A single cool thread must land in the lowest-AMD ring — the best
	// performance spot (Algorithm 2 line 2).
	plat := testPlatform(t, 4, 4)
	hp := NewHotPotato(plat, 70)
	id := sim.ThreadID{Task: 0, Thread: 0}
	st := &sim.State{
		Platform:  plat,
		CoreTemps: make([]float64, 16),
		Threads:   []sim.ThreadInfo{{ID: id, Core: -1, CPI: 1, AvgPower: 2}},
	}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 46
	}
	dec := hp.Decide(st)
	core, ok := dec.Assignment[id]
	if !ok {
		t.Fatal("thread not placed")
	}
	if plat.FP.RingOf(core) != 0 {
		t.Errorf("cool thread placed in ring %d, want innermost", plat.FP.RingOf(core))
	}
}

func TestHotPotatoRotatesAssignmentsOverTime(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	hp := NewHotPotato(plat, 70, WithRotationInterval(0.5e-3))
	id := sim.ThreadID{Task: 0, Thread: 0}
	mkState := func(tm float64, core int) *sim.State {
		temps := make([]float64, 16)
		for i := range temps {
			temps[i] = 50
		}
		return &sim.State{
			Time:      tm,
			Platform:  plat,
			CoreTemps: temps,
			Threads:   []sim.ThreadInfo{{ID: id, Core: core, CPI: 1, AvgPower: 6}},
		}
	}
	dec := hp.Decide(mkState(0, -1))
	first := dec.Assignment[id]
	visited := map[int]bool{first: true}
	core := first
	for step := 1; step <= 8; step++ {
		dec = hp.Decide(mkState(float64(step)*0.5e-3, core))
		core = dec.Assignment[id]
		visited[core] = true
	}
	if len(visited) < 2 {
		t.Fatalf("thread never rotated: visited %v", visited)
	}
	// All visited cores must share the first core's ring.
	ring := plat.FP.RingOf(first)
	for c := range visited {
		if plat.FP.RingOf(c) != ring {
			t.Fatalf("rotation left the ring: core %d in ring %d, want %d", c, plat.FP.RingOf(c), ring)
		}
	}
}

func TestHotPotatoStopsRotatingCoolWorkload(t *testing.T) {
	// canneal at 16-core full load is thermally trivial: after the first
	// rebalance HotPotato should stop rotating (τ→stop, Algorithm 2 lines
	// 23–27), so migrations stay far below always-rotating levels.
	plat := testPlatform(t, 4, 4)
	b, _ := workload.ByName("canneal")
	specs, err := workload.HomogeneousFullLoad(b, 16, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.Instantiate(specs)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHotPotato(plat, 70)
	res := runSim(t, plat, sim.DefaultConfig(), hp, tasks)
	// Always-rotating at τ=0.5 ms would migrate 16 threads ≈ every 0.5 ms:
	// ≈ 32k migrations per simulated second. Demand an order of magnitude
	// fewer.
	perSecond := float64(res.Migrations) / res.Makespan
	if perSecond > 8000 {
		t.Errorf("%.0f migrations/s — rotation apparently never stopped", perSecond)
	}
	if !hpStoppedOrSlow(hp) {
		t.Errorf("rotation still at initial speed: tau=%v rotating=%v", hp.Tau(), hp.Rotating())
	}
	if res.PeakTemp > 70.5 {
		t.Errorf("peak %.2f °C on a cool workload", res.PeakTemp)
	}
}

func hpStoppedOrSlow(hp *HotPotato) bool {
	return !hp.Rotating() || hp.Tau() > 0.5e-3
}

func TestHotPotatoThermallySafeOnHotWorkload(t *testing.T) {
	// blackscholes full load on 16 cores: HotPotato must keep the chip near
	// the threshold (brief DTM excursions tolerated) while clearly
	// outperforming the DVFS baseline.
	b, _ := workload.ByName("blackscholes")
	mkTasks := func() []*workload.Task {
		specs, err := workload.HomogeneousFullLoad(b, 16, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := workload.Instantiate(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			task.WorkScale = 0.5
		}
		return tasks
	}
	platHP := testPlatform(t, 4, 4)
	resHP := runSim(t, platHP, sim.DefaultConfig(), NewHotPotato(platHP, 70), mkTasks())
	if resHP.PeakTemp > 72 {
		t.Errorf("HotPotato peak %.2f °C, want ≈≤ 70 (+DTM tolerance)", resHP.PeakTemp)
	}
	if resHP.DTMTime > 0.15*resHP.Makespan {
		t.Errorf("HotPotato spent %.1f%% of the run throttled", 100*resHP.DTMTime/resHP.Makespan)
	}
	if resHP.Migrations == 0 {
		t.Error("HotPotato never rotated a hot workload")
	}

	platPC := testPlatform(t, 4, 4)
	resPC := runSim(t, platPC, sim.DefaultConfig(), NewPCMig(70), mkTasks())
	if resHP.Makespan >= resPC.Makespan {
		t.Errorf("HotPotato (%.1f ms) not faster than PCMig (%.1f ms) on a hot workload",
			resHP.Makespan*1e3, resPC.Makespan*1e3)
	}
}

func TestHotPotatoHandlesArrivalsAndDepartures(t *testing.T) {
	// Open-system smoke test: staggered arrivals, all tasks must finish and
	// no decision may be rejected by the simulator.
	plat := testPlatform(t, 4, 4)
	b1, _ := workload.ByName("swaptions")
	b2, _ := workload.ByName("streamcluster")
	t0, _ := workload.NewTask(0, b1, 2, 0, 0.3)
	t1, _ := workload.NewTask(1, b2, 4, 5e-3, 0.3)
	t2, _ := workload.NewTask(2, b1, 2, 20e-3, 0.3)
	res := runSim(t, plat, sim.DefaultConfig(), NewHotPotato(plat, 70),
		[]*workload.Task{t0, t1, t2})
	for _, ts := range res.Tasks {
		if ts.Finish < 0 {
			t.Fatalf("task %d never finished", ts.ID)
		}
	}
}

func TestHotPotatoQueuesWhenChipFull(t *testing.T) {
	// 2×2 chip, a 4-thread task occupies everything; a later 2-thread task
	// must wait for it, then run.
	plat := testPlatform(t, 2, 2)
	b, _ := workload.ByName("dedup")
	big, _ := workload.NewTask(0, b, 4, 0, 0.2)
	small, _ := workload.NewTask(1, b, 2, 1e-3, 0.2)
	res := runSim(t, plat, sim.DefaultConfig(), NewHotPotato(plat, 70),
		[]*workload.Task{big, small})
	if res.Tasks[1].Start < res.Tasks[0].Finish-1e-3 {
		t.Errorf("second task started at %v while first finished at %v (capacity violated)",
			res.Tasks[1].Start, res.Tasks[0].Finish)
	}
}

func TestHotPotatoTightensTauUnderPressure(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	hp := NewHotPotato(plat, 70)
	// Four very hot threads; nominal 10 W histories force the analytic peak
	// above the threshold in every ring, so τ must shrink.
	threads := make([]sim.ThreadInfo, 4)
	temps := make([]float64, 16)
	for i := range temps {
		temps[i] = 69.7 // near the threshold to trip the reactive path
	}
	for i := range threads {
		threads[i] = sim.ThreadInfo{
			ID: sim.ThreadID{Task: 0, Thread: i}, Core: -1,
			CPI: 1, AvgPower: 10, NominalWatts: 10,
		}
	}
	st := &sim.State{Time: 2e-3, Platform: plat, CoreTemps: temps, Threads: threads}
	before := hp.Tau()
	hp.Decide(st)
	if hp.Tau() >= before {
		t.Errorf("tau %v did not shrink under thermal pressure (was %v)", hp.Tau(), before)
	}
}

func TestHotPotatoRobustToSensorNoise(t *testing.T) {
	// Real thermal sensors err by ±1–2 K. HotPotato leans on Algorithm 1's
	// model prediction rather than raw sensor values, so moderate noise must
	// not destroy thermal safety or performance.
	b, _ := workload.ByName("blackscholes")
	run := func(noise float64) *sim.Result {
		plat := testPlatform(t, 4, 4)
		specs, err := workload.HomogeneousFullLoad(b, 16, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := workload.Instantiate(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			task.WorkScale = 0.5
		}
		cfg := sim.DefaultConfig()
		cfg.SensorNoiseStdDev = noise
		cfg.SensorNoiseSeed = 99
		return runSim(t, plat, cfg, NewHotPotato(plat, 70), tasks)
	}
	clean := run(0)
	noisy := run(1.5)
	if noisy.PeakTemp > 72.5 {
		t.Errorf("noisy peak %.2f °C", noisy.PeakTemp)
	}
	if noisy.Makespan > clean.Makespan*1.25 {
		t.Errorf("1.5 K sensor noise cost %.0f%% makespan",
			100*(noisy.Makespan/clean.Makespan-1))
	}
}

// Property: under arbitrary arrival/departure sequences, HotPotato's
// assignment is always valid — every live thread either mapped to a unique
// in-range core or queued, and never more threads mapped than cores.
func TestPropHotPotatoAssignmentAlwaysValid(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hp := NewHotPotato(plat, 70)
		bs := workload.PARSEC()
		type liveThread struct {
			info sim.ThreadInfo
		}
		live := map[sim.ThreadID]*liveThread{}
		nextTask := 0
		now := 0.0
		for step := 0; step < 60; step++ {
			now += 0.5e-3
			// Random arrivals.
			if r.Float64() < 0.3 {
				b := bs[r.Intn(len(bs))]
				threads := 1 + r.Intn(4)
				for i := 0; i < threads; i++ {
					id := sim.ThreadID{Task: nextTask, Thread: i}
					live[id] = &liveThread{info: sim.ThreadInfo{
						ID: id, Core: -1, CPI: 1 + r.Float64()*3,
						AvgPower:     r.Float64() * 9,
						NominalWatts: b.NominalWatts, Perf: b.Perf(),
						Arrival: now,
					}}
				}
				nextTask++
			}
			// Random departures: drop a whole task.
			if r.Float64() < 0.2 && len(live) > 0 {
				var victim int = -1
				for id := range live {
					victim = id.Task
					break
				}
				for id := range live {
					if id.Task == victim {
						delete(live, id)
					}
				}
			}
			// Build state with random temperatures.
			var threads []sim.ThreadInfo
			for _, lt := range live {
				threads = append(threads, lt.info)
			}
			slices.SortFunc(threads, func(a, b sim.ThreadInfo) int { return cmpID(a.ID, b.ID) })
			temps := make([]float64, 16)
			for i := range temps {
				temps[i] = 46 + r.Float64()*25
			}
			st := &sim.State{Time: now, Platform: plat, CoreTemps: temps, Threads: threads, TDTM: 70}
			dec := hp.Decide(st)

			// Validate.
			usedCores := map[int]bool{}
			for id, core := range dec.Assignment {
				if _, ok := live[id]; !ok {
					return false // assigned a dead thread
				}
				if core < 0 || core >= 16 {
					return false
				}
				if usedCores[core] {
					return false // two threads on one core
				}
				usedCores[core] = true
			}
			// Record where threads ended up for the next step.
			for id := range live {
				if core, ok := dec.Assignment[id]; ok {
					live[id].info.Core = core
				} else {
					live[id].info.Core = -1
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A warm rotating evalPeak — the Algorithm 1 scoring every HotPotato
// decision repeats per candidate — allocates nothing: its inputs live in
// scratch on the scheduler and the ring tables are memoized.
func TestHotPotatoEvalPeakZeroAllocs(t *testing.T) {
	plat := testPlatform(t, 8, 8)
	hp := NewHotPotato(plat, 70)
	st := &sim.State{Platform: plat, CoreTemps: make([]float64, 64)}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 50
	}
	for i := 0; i < 6; i++ {
		st.Threads = append(st.Threads, sim.ThreadInfo{ID: sim.ThreadID{Task: 0, Thread: i}, Core: -1, CPI: 1, AvgPower: 4 + float64(i)})
	}
	hp.Decide(st)
	if len(hp.pinning.core) != len(st.Threads) {
		t.Fatalf("placed %d of %d threads", len(hp.pinning.core), len(st.Threads))
	}
	hp.rotate = true
	want := hp.evalPeak(st)
	var got float64
	if a := testing.AllocsPerRun(50, func() { got = hp.evalPeak(st) }); a != 0 {
		t.Errorf("warm rotating evalPeak allocates %v per run, want 0", a)
	}
	if got != want {
		t.Errorf("evalPeak %v after warm-up, %v before", got, want)
	}
}

// The warm limit path: with T_DTM − Δ under the rotation's peak, evalPeak
// stops at the first ring and epoch that reach it. It allocates nothing
// either, and it lands on the same side of the limit as the full walk.
func TestHotPotatoEvalPeakUnsafeZeroAllocs(t *testing.T) {
	plat := testPlatform(t, 8, 8)
	hp := NewHotPotato(plat, 70)
	st := &sim.State{Platform: plat, CoreTemps: make([]float64, 64)}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 50
	}
	for i := 0; i < 6; i++ {
		st.Threads = append(st.Threads, sim.ThreadInfo{ID: sim.ThreadID{Task: 0, Thread: i}, Core: -1, CPI: 1, AvgPower: 4 + float64(i)})
	}
	hp.Decide(st)
	hp.rotate = true
	hp.tdtm = math.Inf(1)
	full := hp.evalPeak(st)
	amb := hp.calc.Model().Ambient()
	hp.tdtm = hp.delta + amb + (full-amb)/2
	limit := hp.tdtm - hp.delta
	var got float64
	if a := testing.AllocsPerRun(50, func() { got = hp.evalPeak(st) }); a != 0 {
		t.Errorf("warm evalPeak over the limit allocates %v per run, want 0", a)
	}
	if !(full >= limit && got >= limit) {
		t.Errorf("evalPeak %v under limit %v, full peak %v", got, limit, full)
	}
}

// lightHotPotatoState is a chip whose 12 placed threads draw little enough
// power that a rebalance relaxes τ through evalStaticPeak.
func lightHotPotatoState(t *testing.T, plat *sim.Platform, hp *HotPotato) *sim.State {
	t.Helper()
	st := &sim.State{Platform: plat, CoreTemps: make([]float64, plat.NumCores()), TDTM: 70}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 50
	}
	for i := range 12 {
		st.Threads = append(st.Threads, sim.ThreadInfo{ID: sim.ThreadID{Task: i / 2, Thread: i % 2}, Core: -1, CPI: 1 + float64(i%3)*0.4, AvgPower: 1 + 0.25*float64(i)})
	}
	dec := hp.Decide(st)
	for i := range st.Threads {
		core, ok := dec.Assignment[st.Threads[i].ID]
		if !ok {
			t.Fatalf("thread %v not placed", st.Threads[i].ID)
		}
		st.Threads[i].Core = core
	}
	return st
}

// TestHotPotatoStaticPeakMatchesSteadyState: the scratch-backed static
// check returns, bit for bit, the hottest core of Model.SteadyState on the
// pinned power map, on the dense and on the sparse backend, rotating or not.
func TestHotPotatoStaticPeakMatchesSteadyState(t *testing.T) {
	for _, solver := range []string{thermal.SolverDense, thermal.SolverSparse} {
		cfg := sim.DefaultPlatformConfig(8, 8)
		cfg.Thermal.Solver = solver
		plat, err := sim.NewPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hp := NewHotPotato(plat, 70)
		st := lightHotPotatoState(t, plat, hp)
		hp.rotSteps = 3
		for _, rotate := range []bool{false, true} {
			hp.rotate = rotate
			p := make([]float64, plat.NumCores())
			for i := range p {
				p[i] = plat.Power.IdleWatts
			}
			for _, th := range st.Threads {
				pos, ok := hp.pinning.core[th.ID]
				if !ok {
					continue
				}
				r := 0
				for pos >= hp.ringStart[r+1] {
					r++
				}
				cores := hp.rings[r].Cores
				idx := pos - hp.ringStart[r]
				if rotate {
					idx = (idx + hp.rotSteps) % len(cores)
				}
				p[cores[idx]] = th.AvgPower
			}
			m := plat.Thermal
			want := m.MaxCoreTemp(m.SteadyState(p))
			if got := hp.evalStaticPeak(st); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s rotate=%v: evalStaticPeak %v, SteadyState peak %v", solver, rotate, got, want)
			}
		}
	}
}

// TestHotPotatoRebalanceDecideDoesNotAllocate: a Decide that crosses a
// rebalance point, relaxing τ through the static-placement check, allocates
// nothing once the response tables are warm.
func TestHotPotatoRebalanceDecideDoesNotAllocate(t *testing.T) {
	plat := testPlatform(t, 8, 8)
	hp := NewHotPotato(plat, 70)
	st := lightHotPotatoState(t, plat, hp)
	// Steps of two rebalance intervals: one interval can round below the
	// Decide's st.Time − lastRebalance ≥ rebalanceEvery test.
	for range 3 {
		st.Time += 2 * hp.rebalanceEvery
		hp.Decide(st)
	}
	allocs := testing.AllocsPerRun(50, func() {
		st.Time += 2 * hp.rebalanceEvery
		hp.rotate = true // the relaxation ends by stopping rotation
		hp.Decide(st)
	})
	if allocs != 0 {
		t.Errorf("HotPotato.Decide across a rebalance: %v allocs, want 0", allocs)
	}
	if hp.rotate {
		t.Error("rebalance kept rotating a light load: evalStaticPeak never decided")
	}
}
