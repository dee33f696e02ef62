package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// greedy is a minimal test scheduler: first-come first-served onto the
// lowest-numbered free cores at peak frequency.
type greedy struct {
	freq float64 // 0 = peak
}

func (g *greedy) Name() string { return "greedy" }

func (g *greedy) Decide(st *State) Decision {
	assignment := map[ThreadID]int{}
	used := map[int]bool{}
	for _, th := range st.Threads {
		if th.Core >= 0 && !used[th.Core] {
			assignment[th.ID] = th.Core
			used[th.Core] = true
		}
	}
	for _, th := range st.Threads {
		if _, ok := assignment[th.ID]; ok {
			continue
		}
		for c := 0; c < st.Platform.NumCores(); c++ {
			if !used[c] {
				assignment[th.ID] = c
				used[c] = true
				break
			}
		}
	}
	var freqs []float64
	if g.freq > 0 {
		freqs = make([]float64, st.Platform.NumCores())
		for i := range freqs {
			freqs[i] = g.freq
		}
	}
	return Decision{Assignment: assignment, Freq: freqs}
}

// pinner maps exactly per its table; useful to construct pathological cases.
type pinner struct {
	name string
	pins map[ThreadID]int
}

func (p *pinner) Name() string { return p.name }
func (p *pinner) Decide(st *State) Decision {
	a := map[ThreadID]int{}
	for _, th := range st.Threads {
		if c, ok := p.pins[th.ID]; ok {
			a[th.ID] = c
		}
	}
	return Decision{Assignment: a}
}

func testPlatform(t testing.TB, w, h int) *Platform {
	t.Helper()
	plat, err := NewPlatform(DefaultPlatformConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func smallTask(t testing.TB, name string, threads int, arrival, scale float64) *workload.Task {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	task, err := workload.NewTask(0, b, threads, arrival, scale)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewPlatformValidation(t *testing.T) {
	cfg := DefaultPlatformConfig(0, 4)
	if _, err := NewPlatform(cfg); err == nil {
		t.Error("zero width accepted")
	}
	cfg = DefaultPlatformConfig(4, 4)
	cfg.NoC.HopLatency = -1
	if _, err := NewPlatform(cfg); err == nil {
		t.Error("bad NoC accepted")
	}
	cfg = DefaultPlatformConfig(4, 4)
	cfg.Thermal.SiCapacitance = 0
	if _, err := NewPlatform(cfg); err == nil {
		t.Error("bad thermal config accepted")
	}
	cfg = DefaultPlatformConfig(4, 4)
	cfg.BankAccess = -1
	if _, err := NewPlatform(cfg); err == nil {
		t.Error("bad bank access accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	task := smallTask(t, "blackscholes", 1, 0, 0.05)
	mutations := []func(*Config){
		func(c *Config) { c.TimeSlice = 0 },
		func(c *Config) { c.SchedulerEpoch = c.TimeSlice / 2 },
		func(c *Config) { c.TDTM = 0 },
		func(c *Config) { c.DTMThrottleFreq = 0 },
		func(c *Config) { c.DTMHysteresis = -1 },
		func(c *Config) { c.MaxTime = 0 },
		func(c *Config) { c.HistoryWindow = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(plat, cfg, &greedy{}, []*workload.Task{task}); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(plat, DefaultConfig(), nil, []*workload.Task{task}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(plat, DefaultConfig(), &greedy{}, nil); err == nil {
		t.Error("empty task list accepted")
	}
}

func TestRunCompletesSingleTask(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "blackscholes", 2, 0, 0.2)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 1 {
		t.Fatalf("task stats = %d", len(res.Tasks))
	}
	st := res.Tasks[0]
	if st.Finish <= 0 || st.Start < 0 {
		t.Fatalf("task not run: %+v", st)
	}
	if math.IsNaN(st.Response) || st.Response <= 0 {
		t.Fatalf("response = %v", st.Response)
	}
	if res.Makespan != st.Finish {
		t.Errorf("makespan %v != finish %v", res.Makespan, st.Finish)
	}
	if res.AvgResponse != st.Response || res.MaxResponse != st.Response {
		t.Error("aggregate response stats wrong for single task")
	}
	if res.PeakTemp <= plat.Thermal.Ambient() {
		t.Errorf("peak temp %v not above ambient", res.PeakTemp)
	}
	if res.EnergyJ <= 0 {
		t.Error("no energy accounted")
	}
	if res.SchedulerInvocations == 0 {
		t.Error("scheduler never invoked")
	}
}

func TestArrivalDelaysStart(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "swaptions", 1, 5e-3, 0.05)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[0].Start < 5e-3-1e-4 {
		t.Errorf("task started at %v before its arrival 5ms", res.Tasks[0].Start)
	}
}

func TestQueuedThreadsMakeNoProgress(t *testing.T) {
	// Pin only thread 0; thread 1 stays queued, so a 2-thread blackscholes
	// (whose phase 2 runs on the worker) can never finish within MaxTime.
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "blackscholes", 2, 0, 0.05)
	sch := &pinner{name: "partial", pins: map[ThreadID]int{{Task: 0, Thread: 0}: 5}}
	cfg := DefaultConfig()
	cfg.MaxTime = 50e-3
	s, err := New(plat, cfg, sch, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got err=%v", err)
	}
	if res.Tasks[0].Finish >= 0 {
		t.Error("task finished although its worker never ran")
	}
}

func TestDTMThrottlesUnmanagedRun(t *testing.T) {
	// Unmanaged blackscholes at peak frequency breaches 70 °C; DTM must fire
	// and cap the excursion. With DTM disabled the chip runs hotter.
	plat := testPlatform(t, 4, 4)
	run := func(dtm bool) *Result {
		task := smallTask(t, "blackscholes", 2, 0, 1)
		sch := &pinner{name: "pin", pins: map[ThreadID]int{
			{Task: 0, Thread: 0}: 5, {Task: 0, Thread: 1}: 10,
		}}
		cfg := DefaultConfig()
		cfg.DTMEnabled = dtm
		s, err := New(plat, cfg, sch, []*workload.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if without.PeakTemp <= 70 {
		t.Errorf("unprotected peak %v ≤ 70 °C; workload should breach", without.PeakTemp)
	}
	if with.DTMEvents == 0 || with.DTMTime <= 0 {
		t.Error("DTM never engaged on a breaching workload")
	}
	if without.DTMEvents != 0 {
		t.Error("DTM events counted while disabled")
	}
	if with.PeakTemp >= without.PeakTemp {
		t.Errorf("DTM run peaked at %v, not below unprotected %v", with.PeakTemp, without.PeakTemp)
	}
	if with.Makespan <= without.Makespan {
		t.Error("DTM throttling should cost performance")
	}
}

// migrator ping-pongs a single thread between two cores every decision.
type migrator struct {
	cores [2]int
	flip  bool
}

func (m *migrator) Name() string { return "migrator" }
func (m *migrator) Decide(st *State) Decision {
	a := map[ThreadID]int{}
	m.flip = !m.flip
	core := m.cores[0]
	if m.flip {
		core = m.cores[1]
	}
	for _, th := range st.Threads {
		a[th.ID] = core
	}
	return Decision{Assignment: a, NextInvoke: 0.5e-3}
}

func TestMigrationsCountedAndPenalised(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	mk := func() *workload.Task { return smallTask(t, "swaptions", 1, 0, 0.1) }

	still, err := New(plat, DefaultConfig(), &pinner{name: "pin", pins: map[ThreadID]int{{}: 5}}, []*workload.Task{mk()})
	if err != nil {
		t.Fatal(err)
	}
	resStill, err := still.Run()
	if err != nil {
		t.Fatal(err)
	}

	moving, err := New(plat, DefaultConfig(), &migrator{cores: [2]int{5, 10}}, []*workload.Task{mk()})
	if err != nil {
		t.Fatal(err)
	}
	resMoving, err := moving.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resStill.Migrations != 0 {
		t.Errorf("pinned run migrated %d times", resStill.Migrations)
	}
	if resMoving.Migrations == 0 {
		t.Fatal("ping-pong run recorded no migrations")
	}
	if resMoving.Makespan <= resStill.Makespan {
		t.Errorf("migration penalties did not slow the run: %v vs %v",
			resMoving.Makespan, resStill.Makespan)
	}
}

func TestFrequencyAffectsPerformance(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	run := func(freq float64) float64 {
		task := smallTask(t, "swaptions", 1, 0, 0.1)
		cfg := DefaultConfig()
		cfg.DTMEnabled = false
		s, err := New(plat, cfg, &greedy{freq: freq}, []*workload.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	fast := run(4e9)
	slow := run(2e9)
	// swaptions is compute-bound: halving f should roughly double time.
	ratio := slow / fast
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("f/2 slowdown = %.2f, want ≈2 for a compute-bound task", ratio)
	}
}

func TestTraceObservesRun(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "blackscholes", 2, 0, 0.1)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	var slices int
	var lastT float64
	s.SetTrace(func(tm float64, temps, watts, freqs []float64) {
		slices++
		if tm <= lastT {
			t.Fatal("trace time not monotone")
		}
		lastT = tm
		if len(temps) != 16 || len(watts) != 16 || len(freqs) != 16 {
			t.Fatal("trace vector lengths wrong")
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if slices == 0 {
		t.Fatal("trace never called")
	}
}

// badScheduler returns conflicting assignments.
type badScheduler struct{ mode string }

func (b *badScheduler) Name() string { return "bad" }
func (b *badScheduler) Decide(st *State) Decision {
	switch b.mode {
	case "clash":
		a := map[ThreadID]int{}
		for _, th := range st.Threads {
			a[th.ID] = 0 // everyone on core 0
		}
		return Decision{Assignment: a}
	case "range":
		a := map[ThreadID]int{}
		for _, th := range st.Threads {
			a[th.ID] = 999
		}
		return Decision{Assignment: a}
	case "unknown":
		return Decision{Assignment: map[ThreadID]int{{Task: 77, Thread: 3}: 0}}
	case "unknown-among-valid":
		// Every live thread is validly placed, so only the count of mapped
		// live threads against len(Assignment) can catch the stranger.
		a := map[ThreadID]int{{Task: 77, Thread: 3}: 15}
		for i, th := range st.Threads {
			a[th.ID] = i
		}
		return Decision{Assignment: a}
	case "clash-among-valid":
		// Distinct cores for all but the last thread, which lands on the
		// first thread's core.
		a := map[ThreadID]int{}
		for i, th := range st.Threads {
			a[th.ID] = i
		}
		a[st.Threads[len(st.Threads)-1].ID] = 0
		return Decision{Assignment: a}
	case "shortfreq":
		return Decision{Assignment: map[ThreadID]int{}, Freq: []float64{1e9}}
	}
	return Decision{}
}

func TestInvalidDecisionsRejected(t *testing.T) {
	for mode, want := range map[string]string{
		"clash":               "to core 0",
		"range":               "invalid core 999",
		"unknown":             "1 thread(s) that are not live",
		"shortfreq":           "1 frequencies",
		"unknown-among-valid": "1 thread(s) that are not live",
		"clash-among-valid":   "to core 0",
	} {
		plat := testPlatform(t, 4, 4)
		task := smallTask(t, "blackscholes", 3, 0, 0.1)
		s, err := New(plat, DefaultConfig(), &badScheduler{mode: mode}, []*workload.Task{task})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil {
			t.Errorf("mode %q: invalid decision accepted", mode)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("mode %q: error %q does not mention %q", mode, err, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		plat := testPlatform(t, 4, 4)
		b, _ := workload.ByName("bodytrack")
		t1, _ := workload.NewTask(0, b, 2, 0, 0.2)
		t2, _ := workload.NewTask(1, b, 2, 2e-3, 0.2)
		s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{t1, t2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.PeakTemp != b.PeakTemp || a.EnergyJ != b.EnergyJ {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestMultiTaskResponseAggregates(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	b, _ := workload.ByName("swaptions")
	t1, _ := workload.NewTask(0, b, 1, 0, 0.05)
	t2, _ := workload.NewTask(1, b, 1, 0, 0.15)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 2 {
		t.Fatalf("stats for %d tasks", len(res.Tasks))
	}
	want := (res.Tasks[0].Response + res.Tasks[1].Response) / 2
	if math.Abs(res.AvgResponse-want) > 1e-12 {
		t.Errorf("avg response %v, want %v", res.AvgResponse, want)
	}
	if res.MaxResponse < res.AvgResponse {
		t.Error("max response below average")
	}
}

func TestSensorNoiseValidationAndDeterminism(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	cfg := DefaultConfig()
	cfg.SensorNoiseStdDev = -1
	if _, err := New(plat, cfg, &greedy{}, []*workload.Task{smallTask(t, "dedup", 1, 0, 0.05)}); err == nil {
		t.Error("negative noise accepted")
	}

	run := func(seed int64) *Result {
		cfg := DefaultConfig()
		cfg.SensorNoiseStdDev = 1.0
		cfg.SensorNoiseSeed = seed
		s, err := New(plat, cfg, &greedy{}, []*workload.Task{smallTask(t, "dedup", 1, 0, 0.05)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Makespan != b.Makespan || a.PeakTemp != b.PeakTemp {
		t.Error("same noise seed produced different runs")
	}
}

// noiseProbe records the temperatures the scheduler observes.
type noiseProbe struct {
	greedy
	observed []float64
}

func (p *noiseProbe) Decide(st *State) Decision {
	p.observed = append(p.observed, st.CoreTemps...)
	return p.greedy.Decide(st)
}

func TestSensorNoisePerturbsSchedulerViewOnly(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	cfg := DefaultConfig()
	cfg.SensorNoiseStdDev = 3
	cfg.SensorNoiseSeed = 42
	probe := &noiseProbe{}
	s, err := New(plat, cfg, probe, []*workload.Task{smallTask(t, "swaptions", 1, 0, 0.02)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With 3 K noise the scheduler must have seen values below ambient at
	// least once early on (true temps start exactly at ambient).
	sawPerturbed := false
	amb := plat.Thermal.Ambient()
	for _, v := range probe.observed {
		if v < amb-0.5 {
			sawPerturbed = true
			break
		}
	}
	if !sawPerturbed {
		t.Error("scheduler never saw noisy temperatures")
	}
	// Physics unaffected: peak tracks true temperature, which never dips
	// below ambient.
	if res.PeakTemp < amb {
		t.Errorf("physical peak %v below ambient", res.PeakTemp)
	}
}

func TestEnergyMatchesTraceIntegral(t *testing.T) {
	// Result.EnergyJ must equal the time integral of the traced core power.
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "bodytrack", 2, 0, 0.1)
	cfg := DefaultConfig()
	s, err := New(plat, cfg, &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	s.SetTrace(func(tm float64, temps, watts, freqs []float64) {
		for _, w := range watts {
			integral += w * cfg.TimeSlice
		}
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EnergyJ-integral) > 1e-9*(1+integral) {
		t.Fatalf("EnergyJ %v vs trace integral %v", res.EnergyJ, integral)
	}
}

func TestWorkConservation(t *testing.T) {
	// Every task must retire exactly its instruction budget: zero remaining
	// work at completion, no over- or under-execution.
	plat := testPlatform(t, 4, 4)
	b, _ := workload.ByName("fluidanimate")
	t1, _ := workload.NewTask(0, b, 3, 0, 0.3)
	t2, _ := workload.NewTask(1, b, 2, 3e-3, 0.7)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, task := range []*workload.Task{t1, t2} {
		if !task.Done() {
			t.Fatalf("task %d not done", task.ID)
		}
		if rem := task.TotalRemaining(); rem != 0 {
			t.Fatalf("task %d retired with %g instructions remaining", task.ID, rem)
		}
	}
}

func TestSimulatedTimeAdvancesInSlices(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	task := smallTask(t, "swaptions", 1, 0, 0.02)
	cfg := DefaultConfig()
	s, err := New(plat, cfg, &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	var count int
	s.SetTrace(func(tm float64, temps, watts, freqs []float64) {
		if count > 0 {
			if math.Abs((tm-last)-cfg.TimeSlice) > 1e-12 {
				t.Fatalf("slice step %v, want %v", tm-last, cfg.TimeSlice)
			}
		}
		last = tm
		count++
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SimulatedTime-float64(count)*cfg.TimeSlice) > 1e-9 {
		t.Fatalf("simulated time %v vs %d slices", res.SimulatedTime, count)
	}
}

func TestAvgWaitReflectsQueueing(t *testing.T) {
	// On a 2x2 chip, a 4-thread task blocks a later 1-thread task; the
	// second task's wait shows up in AvgWait.
	plat := testPlatform(t, 2, 2)
	b, _ := workload.ByName("dedup")
	big, _ := workload.NewTask(0, b, 4, 0, 0.2)
	small, _ := workload.NewTask(1, b, 1, 1e-3, 0.05)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{big, small})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait <= 1e-3 {
		t.Errorf("AvgWait = %v, expected clear queueing delay", res.AvgWait)
	}
	// An uncontended single task waits ≈0.
	solo, _ := workload.NewTask(0, b, 1, 0, 0.05)
	s2, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{solo})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.AvgWait > 1e-3 {
		t.Errorf("solo AvgWait = %v, want ≈0", res2.AvgWait)
	}
}

func TestNoCContentionSlowsMemoryHeavyLoad(t *testing.T) {
	// A chip full of streaming threads loads the LLC banks: with the
	// contention model on, the parallel-dominated run takes measurably
	// longer; a near-idle chip is essentially unaffected. (With Table I
	// parameters the banks never saturate outright — peak utilization is
	// ≈10% — so the honest expected effect is a few percent.)
	run := func(contention bool, threads int) float64 {
		plat := testPlatform(t, 4, 4)
		b, _ := workload.ByName("canneal")
		specs, err := workload.HomogeneousFullLoad(b, threads, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := workload.Instantiate(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			task.WorkScale = 0.2
		}
		cfg := DefaultConfig()
		cfg.NoCContention = contention
		s, err := New(plat, cfg, &greedy{}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	fullOff := run(false, 16)
	fullOn := run(true, 16)
	if fullOn <= fullOff*1.02 {
		t.Errorf("contention changed full-load makespan %.2f → %.2f ms (want clearly slower)",
			fullOff*1e3, fullOn*1e3)
	}
	soloOff := run(false, 2)
	soloOn := run(true, 2)
	if soloOn > soloOff*1.05 {
		t.Errorf("contention penalised a near-idle chip: %.2f → %.2f ms",
			soloOff*1e3, soloOn*1e3)
	}
}

func TestPerCoreDTMThrottlesOnlyHotCore(t *testing.T) {
	// Two pinned blackscholes threads heat their own cores; with per-core
	// DTM a cool third task on the far corner keeps running at peak, so it
	// finishes faster than under chip-wide DTM.
	run := func(perCore bool) *Result {
		plat := testPlatform(t, 4, 4)
		hot := smallTask(t, "blackscholes", 2, 0, 1)
		bCool, _ := workload.ByName("canneal")
		cool, _ := workload.NewTask(1, bCool, 1, 0, 0.1)
		sch := &pinner{name: "pin", pins: map[ThreadID]int{
			{Task: 0, Thread: 0}: 5,
			{Task: 0, Thread: 1}: 10,
			{Task: 1, Thread: 0}: 0, // far corner, stays cool
		}}
		cfg := DefaultConfig()
		cfg.DTMPerCore = perCore
		s, err := New(plat, cfg, sch, []*workload.Task{hot, cool})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	chipWide := run(false)
	perCore := run(true)
	if chipWide.DTMEvents == 0 {
		t.Fatal("scenario never tripped DTM; test needs a hotter workload")
	}
	coolChip := chipWide.Tasks[1]
	coolCore := perCore.Tasks[1]
	if coolCore.Response >= coolChip.Response {
		t.Errorf("per-core DTM cool task %.1f ms not faster than chip-wide %.1f ms",
			coolCore.Response*1e3, coolChip.Response*1e3)
	}
	if perCore.PeakTemp > chipWide.PeakTemp+1 {
		t.Errorf("per-core DTM peak %.2f far above chip-wide %.2f", perCore.PeakTemp, chipWide.PeakTemp)
	}
}

func TestResultString(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	task := smallTask(t, "swaptions", 1, 0, 0.05)
	s, err := New(plat, DefaultConfig(), &greedy{}, []*workload.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"greedy", "makespan", "peak", "migrations"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String() missing %q: %s", want, out)
		}
	}
}
