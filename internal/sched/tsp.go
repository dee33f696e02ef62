package sched

import (
	"math"
	"slices"

	"repro/internal/power"
	"repro/internal/sim"
)

// TSPBudget computes the Thermal Safe Power budget [14] for a set of active
// cores: the largest uniform per-core power x such that, with every active
// core at x and every other core at idle power, no core's steady-state
// temperature exceeds tdtm.
//
// Linearity of the RC model gives a closed form. With R the core block of
// B⁻¹ (temperature rise per watt):
//
//	T_i = T_amb + Σ_j R_ij·idle + (x − idle)·Σ_{j∈active} R_ij
//
// so each core i bounds x, and the budget is the minimum over cores.
func TSPBudget(plat *sim.Platform, active []int, tdtm float64) float64 {
	if len(active) == 0 {
		return math.Inf(1)
	}
	n := plat.NumCores()
	idle := plat.Power.IdleWatts
	// CoreInfluence is the core block of B⁻¹ in either solver mode (in
	// sparse mode BInv() is nil; the block is computed lazily and cached).
	binv := plat.Thermal.CoreInfluence()
	amb := plat.Thermal.Ambient()

	activeSet := make([]bool, n)
	for _, c := range active {
		activeSet[c] = true
	}

	budget := math.Inf(1)
	for i := 0; i < n; i++ {
		var base, activeSum float64
		for j := 0; j < n; j++ {
			r := binv.At(i, j)
			base += r * idle
			if activeSet[j] {
				activeSum += r
			}
		}
		if activeSum <= 0 {
			continue
		}
		x := idle + (tdtm-amb-base)/activeSum
		if x < budget {
			budget = x
		}
	}
	if budget < idle {
		budget = idle
	}
	return budget
}

// tspCache holds the TSP budget of the last active-core set a scheduler
// asked for, so an epoch whose set did not change computes no budget.
// TSPBudget stays the single formula.
type tspCache struct {
	plat  *sim.Platform
	tdtm  float64
	set   []bool // per core: active in the set value belongs to
	value float64

	cores []int // scratch: the set asked for as ascending core IDs
}

// budget returns TSPBudget(plat, the cores active flags, tdtm), computing it
// only when that set differs from the previous call's. active has one flag
// per core.
func (c *tspCache) budget(plat *sim.Platform, active []bool, tdtm float64) float64 {
	if plat == c.plat && tdtm == c.tdtm && slices.Equal(active, c.set) {
		return c.value
	}
	cores := c.cores[:0]
	for core, on := range active {
		if on {
			cores = append(cores, core)
		}
	}
	c.cores = cores
	c.plat, c.tdtm, c.value = plat, tdtm, TSPBudget(plat, cores, tdtm)
	c.set = append(c.set[:0], active...)
	return c.value
}

// ladder is a scheduler's copy of a power model's DVFS ladder
// (power.DVFS.Ladder), built on first use and again only if the model
// changes.
type ladder struct {
	model  power.Model
	levels []power.Level
}

// of returns m's ladder, ascending; the first level is FMin.
func (l *ladder) of(m power.Model) []power.Level {
	if l.levels == nil || l.model != m {
		l.model, l.levels = m, m.DVFS().Ladder()
	}
	return l.levels
}

// maxFreqWithinBudget returns the highest level of the power model's ladder
// at which a thread of the given nominal power stays within the power budget
// (at least the minimum level — TSP cannot power-gate a running thread).
func maxFreqWithinBudget(pw *power.Model, levels []power.Level, nominalWatts, budget float64) float64 {
	best := levels[0].F
	for _, l := range levels {
		if pw.LevelPower(nominalWatts, l) <= budget {
			best = l.F
		}
	}
	return best
}

// TSPGovernor pins threads like Static but budgets their power with TSP,
// choosing per-core DVFS levels so the steady state stays below TDTM — the
// DVFS-only management of the paper's Fig. 2(b).
type TSPGovernor struct {
	pins   map[sim.ThreadID]int
	tdtm   float64
	ladder ladder
	tsp    tspCache
	active []bool // the cores of out, the TSP budget's active set
	// out and freqs are the Assignment and Freq of every Decision returned,
	// refilled each Decide (borrowed until the next, see sim.Decision).
	out   map[sim.ThreadID]int
	freqs []float64
}

// NewTSPGovernor builds the governor for a pinned mapping.
func NewTSPGovernor(pins map[sim.ThreadID]int, tdtm float64) *TSPGovernor {
	copied := make(map[sim.ThreadID]int, len(pins))
	for k, v := range pins {
		copied[k] = v
	}
	return &TSPGovernor{pins: copied, tdtm: tdtm, out: map[sim.ThreadID]int{}}
}

// Name implements sim.Scheduler.
func (g *TSPGovernor) Name() string { return "tsp-dvfs" }

// Decide implements sim.Scheduler. Threads pinned to one core share it; the
// core's level follows the last of them in st.Threads.
func (g *TSPGovernor) Decide(st *sim.State) sim.Decision {
	clear(g.out)
	for _, th := range st.Threads {
		if core, ok := g.pins[th.ID]; ok {
			g.out[th.ID] = core
		}
	}
	n := st.Platform.NumCores()
	g.active = slices.Grow(g.active[:0], n)[:n]
	clear(g.active)
	for _, core := range g.out {
		g.active[core] = true
	}
	budget := g.tsp.budget(st.Platform, g.active, g.tdtm)
	pw := &st.Platform.Power
	levels := g.ladder.of(*pw)
	g.freqs = fillFreq(g.freqs, st.Platform.NumCores(), pw.DVFS().FMax)
	for _, th := range st.Threads {
		if core, ok := g.pins[th.ID]; ok {
			g.freqs[core] = maxFreqWithinBudget(pw, levels, th.NominalWatts, budget)
		}
	}
	return sim.Decision{Assignment: g.out, Freq: g.freqs}
}
