package sched

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func testPlatform(t testing.TB, w, h int) *sim.Platform {
	t.Helper()
	plat, err := sim.NewPlatform(sim.DefaultPlatformConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func mustTask(t testing.TB, id int, bench string, threads int, arrival, scale float64) *workload.Task {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	task, err := workload.NewTask(id, b, threads, arrival, scale)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func runSim(t testing.TB, plat *sim.Platform, cfg sim.Config, sch sim.Scheduler, tasks []*workload.Task) *sim.Result {
	t.Helper()
	s, err := sim.New(plat, cfg, sch, tasks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHelperFreeCores(t *testing.T) {
	p := newPinning()
	p.pins = make([]pin, 4)
	p.place(1, &sim.ThreadInfo{ID: sim.ThreadID{Task: 0, Thread: 0}})
	p.place(3, &sim.ThreadInfo{ID: sim.ThreadID{Task: 0, Thread: 1}})
	free := new(scratch).freeCores(&p)
	if len(free) != 2 || free[0] != 0 || free[1] != 2 {
		t.Fatalf("freeCores = %v", free)
	}
}

func TestHelperQueuedTasksOrderAndGrouping(t *testing.T) {
	st := &sim.State{
		Threads: []sim.ThreadInfo{
			{ID: sim.ThreadID{Task: 2, Thread: 0}, Core: -1, Arrival: 1.0},
			{ID: sim.ThreadID{Task: 1, Thread: 1}, Core: -1, Arrival: 0.5},
			{ID: sim.ThreadID{Task: 1, Thread: 0}, Core: -1, Arrival: 0.5},
			{ID: sim.ThreadID{Task: 3, Thread: 0}, Core: 4, Arrival: 0.1}, // mapped: excluded
		},
	}
	groups := new(scratch).queuedTasks(st)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].taskID != 1 || groups[1].taskID != 2 {
		t.Fatalf("order = %d,%d", groups[0].taskID, groups[1].taskID)
	}
	// Workers before master within a group.
	if groups[0].threads[0].ID.Thread != 1 || groups[0].threads[1].ID.Thread != 0 {
		t.Fatalf("within-group order = %v", groups[0].threads)
	}
}

func TestStaticPinsAndName(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	pins := map[sim.ThreadID]int{
		{Task: 0, Thread: 0}: 5,
		{Task: 0, Thread: 1}: 10,
	}
	sch := NewStatic(pins, 0)
	if sch.Name() != "static" {
		t.Errorf("name = %q", sch.Name())
	}
	st := &sim.State{
		Platform: plat,
		Threads: []sim.ThreadInfo{
			{ID: sim.ThreadID{Task: 0, Thread: 0}},
			{ID: sim.ThreadID{Task: 0, Thread: 1}},
			{ID: sim.ThreadID{Task: 9, Thread: 0}}, // unpinned: stays queued
		},
	}
	dec := sch.Decide(st)
	if dec.Assignment[sim.ThreadID{Task: 0, Thread: 0}] != 5 {
		t.Error("pin not honoured")
	}
	if _, ok := dec.Assignment[sim.ThreadID{Task: 9, Thread: 0}]; ok {
		t.Error("unpinned thread assigned")
	}
}

func TestRotationStaticValidation(t *testing.T) {
	if _, err := NewRotationStatic(nil, []int{1, 2}, 0); err == nil {
		t.Error("zero τ accepted")
	}
	if _, err := NewRotationStatic(nil, nil, 1e-3); err == nil {
		t.Error("empty cycle accepted")
	}
	if _, err := NewRotationStatic(nil, []int{1, 1}, 1e-3); err == nil {
		t.Error("duplicate core accepted")
	}
	if _, err := NewRotationStatic(map[sim.ThreadID]int{{}: 5}, []int{1, 2}, 1e-3); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestRotationStaticVisitsAllCores(t *testing.T) {
	id := sim.ThreadID{Task: 0, Thread: 0}
	sch, err := NewRotationStatic(map[sim.ThreadID]int{id: 0}, []int{5, 6, 10, 9}, 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	plat := testPlatform(t, 4, 4)
	visited := map[int]bool{}
	for step := 0; step < 4; step++ {
		st := &sim.State{
			Time:     float64(step) * 0.5e-3,
			Platform: plat,
			Threads:  []sim.ThreadInfo{{ID: id}},
		}
		dec := sch.Decide(st)
		visited[dec.Assignment[id]] = true
		if dec.NextInvoke != 0.5e-3 {
			t.Fatalf("NextInvoke = %v", dec.NextInvoke)
		}
	}
	if len(visited) != 4 {
		t.Fatalf("visited %d cores, want 4: %v", len(visited), visited)
	}
}

func TestRotationStaticSynchronous(t *testing.T) {
	// Two threads two slots apart must always stay two slots apart.
	a := sim.ThreadID{Task: 0, Thread: 0}
	b := sim.ThreadID{Task: 0, Thread: 1}
	cores := []int{5, 6, 10, 9}
	sch, err := NewRotationStatic(map[sim.ThreadID]int{a: 0, b: 2}, cores, 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	plat := testPlatform(t, 4, 4)
	pos := func(core int) int {
		for i, c := range cores {
			if c == core {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 8; step++ {
		st := &sim.State{
			Time:     float64(step) * 0.5e-3,
			Platform: plat,
			Threads:  []sim.ThreadInfo{{ID: a}, {ID: b}},
		}
		dec := sch.Decide(st)
		d := (pos(dec.Assignment[b]) - pos(dec.Assignment[a]) + 4) % 4
		if d != 2 {
			t.Fatalf("step %d: threads %d slots apart, want 2", step, d)
		}
	}
}

func TestTSPBudgetProperties(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	if got := TSPBudget(plat, nil, 70); !math.IsInf(got, 1) {
		t.Errorf("budget with no active cores = %v, want +Inf", got)
	}
	// Fewer active cores → larger budget.
	few := TSPBudget(plat, []int{5}, 70)
	many := TSPBudget(plat, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 70)
	if few <= many {
		t.Errorf("budget(1 core)=%v not above budget(16 cores)=%v", few, many)
	}
	// Higher threshold → larger budget.
	low := TSPBudget(plat, []int{5, 10}, 60)
	high := TSPBudget(plat, []int{5, 10}, 80)
	if high <= low {
		t.Errorf("budget not monotone in threshold: %v vs %v", low, high)
	}
}

func TestTSPBudgetIsThermallySafe(t *testing.T) {
	// The defining property: running every active core exactly at the budget
	// (others idle) must not exceed the threshold in steady state.
	plat := testPlatform(t, 4, 4)
	for _, active := range [][]int{{5}, {5, 10}, {5, 6, 9, 10}, {0, 3, 12, 15}} {
		budget := TSPBudget(plat, active, 70)
		p := make([]float64, 16)
		for i := range p {
			p[i] = plat.Power.IdleWatts
		}
		for _, c := range active {
			p[c] = budget
		}
		ss := plat.Thermal.SteadyState(p)
		if got := plat.Thermal.MaxCoreTemp(ss); got > 70+1e-6 {
			t.Errorf("active %v at budget %.2f W: steady max %.3f > 70", active, budget, got)
		}
		// And it is tight: 10% more power must breach.
		for _, c := range active {
			p[c] = budget * 1.1
		}
		ss = plat.Thermal.SteadyState(p)
		if got := plat.Thermal.MaxCoreTemp(ss); got <= 70 {
			t.Errorf("active %v: budget not tight (%.3f at +10%%)", active, got)
		}
	}
}

func TestTSPGovernorKeepsThermalLimit(t *testing.T) {
	// The Fig. 2(b) policy: thermally safe but slower than unmanaged.
	plat := testPlatform(t, 4, 4)
	pins := map[sim.ThreadID]int{
		{Task: 0, Thread: 0}: 5,
		{Task: 0, Thread: 1}: 10,
	}
	cfg := sim.DefaultConfig()
	cfg.DTMEnabled = false // expose the governor's own safety
	res := runSim(t, plat, cfg, NewTSPGovernor(pins, 70),
		[]*workload.Task{mustTask(t, 0, "blackscholes", 2, 0, 1)})
	if res.PeakTemp > 70.2 {
		t.Errorf("TSP peak %.2f > 70 °C", res.PeakTemp)
	}
	resStatic := runSim(t, plat, cfg, NewStatic(pins, 0),
		[]*workload.Task{mustTask(t, 0, "blackscholes", 2, 0, 1)})
	if res.Makespan <= resStatic.Makespan {
		t.Errorf("TSP (%.1fms) not slower than unmanaged (%.1fms)",
			res.Makespan*1e3, resStatic.Makespan*1e3)
	}
}

func TestPCMigAdmissionMapsMemoryBoundInward(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	sch := NewPCMig(70)
	// One canneal (memory-bound) and one swaptions (compute-bound) thread.
	st := &sim.State{
		Platform:  plat,
		CoreTemps: make([]float64, 16),
		Threads: []sim.ThreadInfo{
			{ID: sim.ThreadID{Task: 0, Thread: 0}, Core: -1, CPI: 3.5, AvgPower: 2, Arrival: 0},
			{ID: sim.ThreadID{Task: 0, Thread: 1}, Core: -1, CPI: 0.9, AvgPower: 8, Arrival: 0},
		},
	}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 50
	}
	dec := sch.Decide(st)
	memCore := dec.Assignment[sim.ThreadID{Task: 0, Thread: 0}]
	cmpCore := dec.Assignment[sim.ThreadID{Task: 0, Thread: 1}]
	if plat.FP.AMD(memCore) > plat.FP.AMD(cmpCore) {
		t.Errorf("memory-bound thread on AMD %.2f, compute-bound on %.2f",
			plat.FP.AMD(memCore), plat.FP.AMD(cmpCore))
	}
}

func TestPCMigGangAdmissionFIFO(t *testing.T) {
	plat := testPlatform(t, 2, 2) // 4 cores
	sch := NewPCMig(70)
	// Task 0 (arrival 0) needs 3 cores, task 1 (arrival 1ms) needs 2: only
	// task 0 fits; task 1 must wait even though 1 core stays free.
	threads := []sim.ThreadInfo{
		{ID: sim.ThreadID{Task: 0, Thread: 0}, Core: -1, Arrival: 0},
		{ID: sim.ThreadID{Task: 0, Thread: 1}, Core: -1, Arrival: 0},
		{ID: sim.ThreadID{Task: 0, Thread: 2}, Core: -1, Arrival: 0},
		{ID: sim.ThreadID{Task: 1, Thread: 0}, Core: -1, Arrival: 1e-3},
		{ID: sim.ThreadID{Task: 1, Thread: 1}, Core: -1, Arrival: 1e-3},
	}
	st := &sim.State{Platform: plat, CoreTemps: make([]float64, 4), Threads: threads}
	dec := sch.Decide(st)
	for i := 0; i < 3; i++ {
		if _, ok := dec.Assignment[sim.ThreadID{Task: 0, Thread: i}]; !ok {
			t.Fatalf("task 0 thread %d not admitted", i)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok := dec.Assignment[sim.ThreadID{Task: 1, Thread: i}]; ok {
			t.Fatalf("task 1 admitted before task 0 finished (gang violation)")
		}
	}
}

func TestPCMigAsyncMigrationOnHotCore(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	sch := NewPCMig(70)
	id := sim.ThreadID{Task: 0, Thread: 0}
	st := &sim.State{
		Platform:  plat,
		CoreTemps: make([]float64, 16),
		Threads:   []sim.ThreadInfo{{ID: id, Core: -1, CPI: 1, AvgPower: 5}},
	}
	for i := range st.CoreTemps {
		st.CoreTemps[i] = 50
	}
	dec := sch.Decide(st)
	core := dec.Assignment[id]

	// Now the thread's core runs hot; everything else is cool.
	st2 := &sim.State{
		Platform:  plat,
		CoreTemps: make([]float64, 16),
		Threads:   []sim.ThreadInfo{{ID: id, Core: core, CPI: 1, AvgPower: 5}},
	}
	for i := range st2.CoreTemps {
		st2.CoreTemps[i] = 50
	}
	st2.CoreTemps[core] = 69.8
	dec2 := sch.Decide(st2)
	if dec2.Assignment[id] == core {
		t.Error("PCMig did not migrate away from a near-threshold core")
	}
}

func TestPCMigThermalSafetyEndToEnd(t *testing.T) {
	// Full-load 16-core blackscholes: PCMig must keep the chip essentially
	// at or below the threshold (brief DTM excursions at phase changes are
	// tolerated, sustained violation is not).
	plat := testPlatform(t, 4, 4)
	b, _ := workload.ByName("blackscholes")
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
	res := runSim(t, plat, sim.DefaultConfig(), NewPCMig(70), tasks)
	if res.PeakTemp > 71.5 {
		t.Errorf("PCMig peak %.2f °C, want ≈≤ 70", res.PeakTemp)
	}
	if res.DTMTime > 0.1*res.Makespan {
		t.Errorf("PCMig spent %.1f%% of the run in DTM", 100*res.DTMTime/res.Makespan)
	}
}

func TestReactiveGovernor(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	r := NewReactive(70)
	if r.Name() != "reactive" {
		t.Errorf("name = %q", r.Name())
	}
	id := sim.ThreadID{Task: 0, Thread: 0}
	mkState := func(temp float64, core int) *sim.State {
		temps := make([]float64, 16)
		for i := range temps {
			temps[i] = 50
		}
		info := sim.ThreadInfo{ID: id, Core: core, CPI: 1, AvgPower: 8}
		st := &sim.State{Platform: plat, CoreTemps: temps, Threads: []sim.ThreadInfo{info}}
		if core >= 0 {
			st.CoreTemps[core] = temp
		}
		return st
	}
	dec := r.Decide(mkState(50, -1))
	core := dec.Assignment[id]
	fmax := plat.Power.DVFS().FMax
	if dec.Freq[core] != fmax {
		t.Fatal("cool core not at peak frequency")
	}
	// Hot core steps down by one DVFS level per epoch.
	dec = r.Decide(mkState(69.5, core))
	if dec.Freq[core] >= fmax {
		t.Fatal("hot core did not step down")
	}
	down := dec.Freq[core]
	// Cooled core steps back up.
	dec = r.Decide(mkState(55, core))
	if dec.Freq[core] <= down {
		t.Fatal("cooled core did not step up")
	}
}

func TestReactiveEndToEndThermallyBounded(t *testing.T) {
	// The naive governor must still keep the chip near the threshold (DTM
	// as backstop), just less efficiently than the model-driven policies.
	plat := testPlatform(t, 4, 4)
	b, _ := workload.ByName("blackscholes")
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
	res := runSim(t, plat, sim.DefaultConfig(), NewReactive(70), tasks)
	if res.PeakTemp > 73 {
		t.Errorf("reactive peak %.2f °C", res.PeakTemp)
	}
	for _, ts := range res.Tasks {
		if ts.Finish < 0 {
			t.Fatal("reactive run did not finish")
		}
	}
}

func TestAsyncMigrateFleesHotCore(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	a := NewAsyncMigrate(70)
	if a.Name() != "async-migration" {
		t.Errorf("name = %q", a.Name())
	}
	id := sim.ThreadID{Task: 0, Thread: 0}
	temps := make([]float64, 16)
	for i := range temps {
		temps[i] = 50
	}
	st := &sim.State{Platform: plat, CoreTemps: temps,
		Threads: []sim.ThreadInfo{{ID: id, Core: -1, CPI: 1, AvgPower: 8}}}
	dec := a.Decide(st)
	core := dec.Assignment[id]
	if dec.Freq != nil {
		t.Fatal("async-migration must not use DVFS")
	}
	st.CoreTemps[core] = 69
	st.Threads[0].Core = core
	dec = a.Decide(st)
	if dec.Assignment[id] == core {
		t.Error("thread not migrated off the hot core")
	}
}

func TestSynchronousBeatsAsynchronous(t *testing.T) {
	// The paper's central claim in isolation: on a hot full load, periodic
	// synchronous rotation (HotPotato) sustains more performance than
	// on-demand asynchronous migration at the same peak frequency, because
	// the async policy lets hotspots form before reacting (DTM bites).
	b, _ := workload.ByName("blackscholes")
	mk := func() []*workload.Task {
		specs, err := workload.HomogeneousFullLoad(b, 16, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := workload.Instantiate(specs)
		if err != nil {
			t.Fatal(err)
		}
		return tasks
	}
	platA := testPlatform(t, 4, 4)
	async := runSim(t, platA, sim.DefaultConfig(), NewAsyncMigrate(70), mk())
	platS := testPlatform(t, 4, 4)
	syncR := runSim(t, platS, sim.DefaultConfig(), NewHotPotato(platS, 70), mk())
	if syncR.Makespan >= async.Makespan {
		t.Errorf("synchronous (%.1f ms) not faster than asynchronous (%.1f ms)",
			syncR.Makespan*1e3, async.Makespan*1e3)
	}
	if async.DTMTime <= syncR.DTMTime {
		t.Errorf("async DTM time %.1f ms not above synchronous %.1f ms",
			async.DTMTime*1e3, syncR.DTMTime*1e3)
	}
}

// TestPinningSyncDropsDepartedAndKeepsPins: sync finds each live thread's pin
// through the one ID lookup, unpins the threads that left and reports that
// some did, and keeps the pins (and PCMig's levels on them) of the threads
// that stayed, even when the State lists them in another order. unpin frees
// the pin and the ID entry both.
func TestPinningSyncDropsDepartedAndKeepsPins(t *testing.T) {
	plat := testPlatform(t, 2, 2)
	ids := []sim.ThreadID{{Task: 0, Thread: 0}, {Task: 0, Thread: 1}, {Task: 1, Thread: 0}}
	st := &sim.State{Platform: plat}
	for _, id := range ids {
		st.Threads = append(st.Threads, sim.ThreadInfo{ID: id, Core: -1})
	}
	p := newPinning()
	if p.sync(st) {
		t.Error("sync of an empty pinning reported a departure")
	}
	for i := range st.Threads {
		p.place(i, &st.Threads[i])
	}
	p.pins[1].level, p.pins[1].leveled = plat.Power.DVFS().Ladder()[0], true

	// Thread 0:0 leaves; the other two swap places in Threads.
	st.Threads = []sim.ThreadInfo{{ID: ids[2], Core: 2, AvgPower: 3}, {ID: ids[1], Core: 1, AvgPower: 5}}
	if !p.sync(st) {
		t.Error("sync did not report the departure")
	}
	if p.pins[0].used || len(p.core) != 2 {
		t.Fatalf("departed thread still pinned: pins %+v, index %v", p.pins, p.core)
	}
	for c, want := range map[int]float64{1: 5, 2: 3} {
		if pn := p.pins[c]; !pn.used || pn.th == nil || pn.th.AvgPower != want {
			t.Errorf("core %d: pin %+v, want the thread with AvgPower %v", c, pn, want)
		}
	}
	if !p.pins[1].leveled {
		t.Error("a staying thread lost its DVFS level")
	}
	out := map[sim.ThreadID]int{{Task: 9, Thread: 9}: 3}
	p.fill(out)
	if len(out) != 2 || out[ids[1]] != 1 || out[ids[2]] != 2 {
		t.Errorf("fill = %v", out)
	}
	if p.sync(st) {
		t.Error("sync with the same threads reported a departure")
	}

	p.unpin(2)
	if p.pins[2] != (pin{}) {
		t.Errorf("unpinned position holds %+v", p.pins[2])
	}
	if _, ok := p.core[ids[2]]; ok || len(p.core) != 1 {
		t.Errorf("unpinned thread still indexed: %v", p.core)
	}
}
