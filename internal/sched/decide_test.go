package sched

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oracleExecWatts is PCMig's projected executing power as it was written
// before the ladder was precomputed: perf.Model.Fractions and the
// power.Model.ActivePower arithmetic, evaluated from scratch at f.
func oracleExecWatts(plat *sim.Platform, th sim.ThreadInfo, core int, f float64) float64 {
	busy, stall := plat.Perf.Fractions(th.Perf, core, f)
	pw := plat.Power
	d := pw.DVFS()
	fc := d.Clamp(f)
	vr := d.VoltageAt(fc) / d.VMax
	fr := fc / d.FMax
	dyn := pw.DynFraction * th.NominalWatts * fr * vr * vr
	leak := (1 - pw.DynFraction) * th.NominalWatts * vr
	return busy*(dyn+leak) + stall*pw.StallWatts
}

// TestExecWattsBitIdenticalToOracle: the table-driven projection equals the
// per-level recomputation bit for bit for every benchmark on every core of
// the paper's chip at every DVFS level, and at FMax, the level a thread is
// projected from before it has one. Phases run the same CPI stack, so every
// phase of a benchmark is covered by its parameters.
func TestExecWattsBitIdenticalToOracle(t *testing.T) {
	plat := testPlatform(t, 8, 8)
	pw := &plat.Power
	d := pw.DVFS()
	levels := pw.DVFS().Ladder()
	if got, want := len(levels), len(d.Levels()); got != want {
		t.Fatalf("ladder has %d levels, Levels %d", got, want)
	}
	if levels[0].F != d.FMin {
		t.Fatalf("ladder starts at %v, want FMin %v", levels[0].F, d.FMin)
	}
	for _, b := range workload.PARSEC() {
		th := sim.ThreadInfo{Perf: b.Perf(), NominalWatts: b.NominalWatts}
		for core := range plat.NumCores() {
			mem := plat.Perf.MemTimePerInstr(th.Perf, core)
			for _, l := range append(levels, d.LevelOf(d.FMax)) {
				got := execWatts(pw, &th, mem, l)
				want := oracleExecWatts(plat, th, core, l.F)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s core %d f=%v: %v, oracle %v", b.Name, core, l.F, got, want)
				}
			}
		}
	}
}

// TestMaxFreqWithinBudgetMatchesOracle: the TSP governor's level choice on
// the shared ladder equals a scan of ActivePower over Levels.
func TestMaxFreqWithinBudgetMatchesOracle(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	pw := &plat.Power
	d := pw.DVFS()
	levels := d.Ladder()
	for _, nominal := range []float64{1, 2.5, 4, 6.3, 9} {
		for budget := 0.0; budget < 10; budget += 0.37 {
			want := d.FMin
			for _, f := range d.Levels() {
				if pw.ActivePower(nominal, f) <= budget {
					want = f
				}
			}
			if got := maxFreqWithinBudget(pw, levels, nominal, budget); got != want {
				t.Fatalf("nominal %v budget %v: %v, oracle %v", nominal, budget, got, want)
			}
		}
	}
}

// budgetAuditor runs a scheduler that keeps a tspCache (PCMig or
// TSPGovernor) and checks after every decision that the cached TSP budget is
// the one TSPBudget computes for the current active set.
type budgetAuditor struct {
	t              *testing.T
	sch            sim.Scheduler
	tsp            *tspCache
	tdtm           float64
	epochs, misses int
	prev           float64
}

func (a *budgetAuditor) Name() string { return a.sch.Name() }

func (a *budgetAuditor) Decide(st *sim.State) sim.Decision {
	dec := a.sch.Decide(st)
	var active []int
	for _, core := range dec.Assignment {
		active = append(active, core)
	}
	want := TSPBudget(st.Platform, active, a.tdtm)
	if got := a.tsp.value; math.Float64bits(got) != math.Float64bits(want) {
		a.t.Fatalf("t=%v: cached budget %v, TSPBudget of %v = %v", st.Time, got, active, want)
	}
	if a.epochs == 0 || math.Float64bits(want) != math.Float64bits(a.prev) {
		a.misses++
	}
	a.epochs++
	a.prev = want
	return dec
}

func TestPCMigCachedBudgetIsFresh(t *testing.T) {
	plat := testPlatform(t, 4, 4)
	tasks := []*workload.Task{
		mustTask(t, 0, "blackscholes", 4, 0, 0.3),
		mustTask(t, 1, "swaptions", 4, 2e-3, 0.3),
		mustTask(t, 2, "canneal", 2, 4e-3, 0.3),
		mustTask(t, 3, "bodytrack", 8, 6e-3, 0.3),
		mustTask(t, 4, "streamcluster", 4, 15e-3, 0.3),
	}
	p := NewPCMig(70)
	a := &budgetAuditor{t: t, sch: p, tsp: &p.tsp, tdtm: p.tdtm}
	res := runSim(t, plat, sim.DefaultConfig(), a, tasks)
	if res.Migrations == 0 {
		t.Error("run made no migrations")
	}
	if a.misses < 4 || a.misses >= a.epochs {
		t.Errorf("active set changed on %d of %d epochs: the run does not exercise both cache paths", a.misses, a.epochs)
	}
}

// steadyDecideState is a loaded chip (48 threads) with every thread already placed by
// sch and nothing queued: the state of a control epoch between arrivals.
// Temperatures stay clear of the migration trigger.
func steadyDecideState(tb testing.TB, plat *sim.Platform, sch sim.Scheduler) *sim.State {
	tb.Helper()
	bs := workload.PARSEC()
	temps := make([]float64, plat.NumCores())
	for i := range temps {
		temps[i] = 62
	}
	var threads []sim.ThreadInfo
	for i := range 48 {
		b := bs[i%len(bs)]
		threads = append(threads, sim.ThreadInfo{
			ID:           sim.ThreadID{Task: i / 4, Thread: i % 4},
			Benchmark:    b.Name,
			Perf:         b.Perf(),
			NominalWatts: b.NominalWatts,
			Core:         -1,
			AvgPower:     0.6 * b.NominalWatts,
			CPI:          1 + float64(i%5)*0.3,
		})
	}
	st := &sim.State{CoreTemps: temps, Threads: threads, Platform: plat, TDTM: 70}
	dec := sch.Decide(st)
	for i := range st.Threads {
		core, ok := dec.Assignment[st.Threads[i].ID]
		if !ok {
			tb.Fatalf("thread %v not placed", st.Threads[i].ID)
		}
		st.Threads[i].Core = core
	}
	return st
}

// TestPCMigDecideDoesNotAllocate pins PCMig's steady-state epoch: with the
// mapping settled, a decision reuses every buffer it returned before.
func TestPCMigDecideDoesNotAllocate(t *testing.T) {
	p := NewPCMig(70)
	st := steadyDecideState(t, testPlatform(t, 8, 8), p)
	for range 3 {
		st.Time += 1e-3
		p.Decide(st)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st.Time += 1e-3
		p.Decide(st)
	})
	if allocs != 0 {
		t.Errorf("PCMig.Decide: %v allocs per steady-state epoch, want 0", allocs)
	}
}

// TestTSPGovernorDecideDoesNotAllocate pins the governor's steady-state
// decision to PCMig's rule: it refills the buffers it returned before.
func TestTSPGovernorDecideDoesNotAllocate(t *testing.T) {
	pins := map[sim.ThreadID]int{}
	for i := range 48 {
		pins[sim.ThreadID{Task: i / 4, Thread: i % 4}] = i
	}
	g := NewTSPGovernor(pins, 70)
	st := steadyDecideState(t, testPlatform(t, 8, 8), g)
	g.Decide(st)
	allocs := testing.AllocsPerRun(100, func() {
		st.Time += 1e-3
		g.Decide(st)
	})
	if allocs != 0 {
		t.Errorf("TSPGovernor.Decide: %v allocs per steady-state decision, want 0", allocs)
	}
}

// TestReactiveAndAsyncMigrateDecideDoNotAllocate holds the two baselines to
// PCMig's rule: a steady-state decision refills the buffers it returned
// before.
func TestReactiveAndAsyncMigrateDecideDoNotAllocate(t *testing.T) {
	for _, sch := range []sim.Scheduler{NewReactive(70), NewAsyncMigrate(70)} {
		st := steadyDecideState(t, testPlatform(t, 8, 8), sch)
		for range 3 {
			st.Time += 1e-3
			sch.Decide(st)
		}
		allocs := testing.AllocsPerRun(100, func() {
			st.Time += 1e-3
			sch.Decide(st)
		})
		if allocs != 0 {
			t.Errorf("%s Decide: %v allocs per steady-state decision, want 0", sch.Name(), allocs)
		}
	}
}

// TestTSPGovernorCachedBudgetIsFresh: the governor's cached budget follows
// its active set as pinned tasks arrive and depart.
func TestTSPGovernorCachedBudgetIsFresh(t *testing.T) {
	pins := map[sim.ThreadID]int{}
	for task, cores := range [][]int{{5, 6}, {9, 10, 1}, {0, 15}} {
		for i, core := range cores {
			pins[sim.ThreadID{Task: task, Thread: i}] = core
		}
	}
	g := NewTSPGovernor(pins, 70)
	a := &budgetAuditor{t: t, sch: g, tsp: &g.tsp, tdtm: g.tdtm}
	cfg := sim.DefaultConfig()
	cfg.DTMEnabled = false
	runSim(t, testPlatform(t, 4, 4), cfg, a, []*workload.Task{
		mustTask(t, 0, "blackscholes", 2, 0, 0.3),
		mustTask(t, 1, "swaptions", 3, 2e-3, 0.2),
		mustTask(t, 2, "canneal", 2, 4e-3, 0.3),
	})
	if a.misses < 3 {
		t.Errorf("active set changed on %d of %d decisions: the run does not exercise the cache", a.misses, a.epochs)
	}
}

// TestLadderFollowsModel: a scheduler's ladder is rebuilt when the power
// model it is asked for changes.
func TestLadderFollowsModel(t *testing.T) {
	var l ladder
	m := power.DefaultModel()
	first := l.of(m)
	if again := l.of(m); &again[0] != &first[0] {
		t.Error("ladder rebuilt for an unchanged model")
	}
	d := m.DVFS()
	d.FMax = 3e9
	m2, err := power.NewModel(d, m.IdleWatts, m.StallWatts, m.DynFraction)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.of(m2); got[len(got)-1].F > 3e9 {
		t.Errorf("ladder tops at %v after the model changed to FMax 3 GHz", got[len(got)-1].F)
	}
}

// --- hot-loop decision baseline (make bench → BENCH_hotloop.json) ----------

// BenchmarkHotloopDecide measures one control epoch's Decide on the paper's
// 8×8 chip in steady state: 48 threads placed, no arrivals. HotPotato's ops
// advance time by its rotation interval, so they include its periodic
// rebalances; PCMig's allocate nothing.
func BenchmarkHotloopDecide(b *testing.B) {
	for _, c := range []struct {
		name string
		new  func(*sim.Platform) sim.Scheduler
	}{
		{"pcmig", func(*sim.Platform) sim.Scheduler { return NewPCMig(70) }},
		{"hotpotato", func(plat *sim.Platform) sim.Scheduler { return NewHotPotato(plat, 70) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			plat := testPlatform(b, 8, 8)
			sch := c.new(plat)
			st := steadyDecideState(b, plat, sch)
			next := 0.0
			for range 20 { // settle τ and the scratch: a 1x run times a steady op too
				st.Time += next
				next = sch.Decide(st).NextInvoke
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				st.Time += next
				next = sch.Decide(st).NextInvoke
			}
		})
	}
}
