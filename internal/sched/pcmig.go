package sched

import (
	"cmp"
	"slices"

	"repro/internal/perf"
	"repro/internal/power"
	"repro/internal/sim"
)

// PCMig reproduces the state-of-the-art baseline scheduler for S-NUCA
// many-cores ([10], [21], building on PCGov [6]):
//
//   - cache-aware mapping: queued tasks are admitted FIFO (gang admission);
//     within a task, higher-CPI (memory-bound) threads get the lowest-AMD
//     free cores, where the distributed LLC is closest;
//   - TSP-based power budgeting: every control epoch the TSP budget for the
//     currently active cores is recomputed and each active core's DVFS level
//     is set to the highest frequency whose power fits the budget
//     (fine-grained 100 MHz steps, §VI);
//   - asynchronous on-demand thread migration: when a core approaches the
//     DTM threshold, its thread is migrated to the coolest free core — the
//     "measure of last resort" the paper describes.
type PCMig struct {
	tdtm float64
	// margin is how close (K) a core may get to TDTM before the on-demand
	// migration fires.
	margin float64
	// minGain is the minimum temperature advantage (K) a destination core
	// must offer for a migration to be worthwhile.
	minGain float64
	epoch   float64

	// pinning is the mapping; each pin also carries its thread's DVFS level
	// of the previous epoch.
	pinning pinning
	// out and freqs are the Assignment and Freq of every Decision returned,
	// refilled each Decide (borrowed until the next, see sim.Decision): a
	// caller that writes to them cannot reach the mapping above.
	out   map[sim.ThreadID]int
	freqs []float64

	ladder ladder
	tsp    tspCache
	active []bool // the pinned cores, the TSP budget's active set
	scr    scratch
	// powers is performanceMigration's steady-state power field.
	powers []float64
}

// PCMigOption customises the baseline.
type PCMigOption func(*PCMig)

// WithPCMigEpoch sets the control epoch (default 1 ms).
func WithPCMigEpoch(epoch float64) PCMigOption {
	return func(p *PCMig) { p.epoch = epoch }
}

// WithPCMigMargin sets the migration trigger margin in K (default 2).
func WithPCMigMargin(margin float64) PCMigOption {
	return func(p *PCMig) { p.margin = margin }
}

// NewPCMig builds the baseline for the given DTM threshold.
func NewPCMig(tdtm float64, opts ...PCMigOption) *PCMig {
	p := &PCMig{
		tdtm:    tdtm,
		margin:  2,
		minGain: 2,
		epoch:   1e-3,
		pinning: newPinning(),
		out:     map[sim.ThreadID]int{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Scheduler.
func (p *PCMig) Name() string { return "pcmig" }

// Decide implements sim.Scheduler.
func (p *PCMig) Decide(st *sim.State) sim.Decision {
	p.pinning.sync(st)

	// Gang admission, FIFO: map each queued task's threads onto free cores,
	// memory-bound threads to low-AMD cores first (PCGov's cache-aware rule;
	// the stable sort keeps queuedTasks' order among equal CPIs).
	groups := p.scr.queuedTasks(st)
	for _, g := range groups {
		slices.SortStableFunc(g.threads, func(a, b *sim.ThreadInfo) int { return cmp.Compare(b.CPI, a.CPI) })
	}
	p.scr.admitByAMD(st, &p.pinning, groups)

	// Performance-driven migration (the prediction-based migrations of
	// [10], [21]): when cores free up, the thread with the highest effective
	// CPI — the one losing the most to LLC distance — moves to the best
	// free lower-AMD core, provided the steady-state prediction stays safe.
	// One move per control epoch, mirroring the baseline's caution.
	p.performanceMigration(st)

	// Asynchronous on-demand migration: threads on cores within margin of
	// TDTM move to the coolest free core if it is clearly cooler.
	p.scr.migrateHot(st, &p.pinning, p.tdtm-p.margin, p.minGain)

	// TSP-based DVFS on the active cores. The budget is enforced against
	// each thread's predicted power (PCMig's predictor works from observed
	// behaviour, not the worst-case nominal): the measured average power at
	// the previously set frequency is decomposed into an executing-power
	// component and a duty cycle using the interval model's busy/stall
	// fractions, and re-projected to each candidate frequency. Every level
	// is tried: the projected power need not rise with f, since above the
	// frequency where ActivePower passes StallWatts, a faster clock moves
	// time from the stalled state into the cheaper busy one.
	p.active = p.pinning.active(p.active)
	budget := p.tsp.budget(st.Platform, p.active, p.tdtm)
	pw := &st.Platform.Power
	d := pw.DVFS()
	idle := pw.IdleWatts
	levels := p.ladder.of(*pw)
	p.freqs = fillFreq(p.freqs, st.Platform.NumCores(), d.FMax)
	for core := range p.pinning.pins {
		pn := &p.pinning.pins[core]
		if !pn.used {
			continue
		}
		th := pn.th
		mem := st.Platform.Perf.MemTimePerInstr(th.Perf, core)
		prev := pn.level
		if !pn.leveled {
			prev = d.LevelOf(d.FMax)
		}
		duty := 1.0
		if execPrev := execWatts(pw, th, mem, prev); execPrev > idle {
			duty = (th.AvgPower - idle) / (execPrev - idle)
			if duty < 0 {
				duty = 0
			} else if duty > 1 {
				duty = 1
			}
		}
		best := levels[0] // FMin
		for _, l := range levels {
			if duty*execWatts(pw, th, mem, l)+(1-duty)*idle <= budget {
				best = l
			}
		}
		p.freqs[core] = best.F
		pn.level, pn.leveled = best, true
	}

	p.pinning.fill(p.out)
	return sim.Decision{Assignment: p.out, Freq: p.freqs, NextInvoke: p.epoch}
}

// execWatts is the power of thread th executing at level l on a core where
// it stalls mem seconds per instruction: the busy share at the level's
// active power, the stalled share at StallWatts.
func execWatts(pw *power.Model, th *sim.ThreadInfo, mem float64, l power.Level) float64 {
	busy, stall := perf.FractionsAt(th.Perf, l.F, mem)
	return busy*pw.LevelPower(th.NominalWatts, l) + stall*pw.StallWatts
}

// performanceMigration moves at most one thread to a clearly better (lower
// AMD) free core when the predicted speedup justifies the migration cost and
// the steady-state temperature stays below the threshold.
func (p *PCMig) performanceMigration(st *sim.State) {
	n := st.Platform.NumCores()
	fp := st.Platform.FP
	free := p.scr.freeCores(&p.pinning)
	if len(free) == 0 {
		return
	}
	// The free core of lowest AMD, ties to the lowest ID (free ascends).
	dst := free[0]
	for _, c := range free[1:] {
		if fp.AMD(c) < fp.AMD(dst) {
			dst = c
		}
	}
	// Only a thread on a core of higher AMD than dst can gain: when the
	// free cores are the outer ones (the common epoch), skip the scan.
	if !p.pinning.anyCore(func(core int) bool { return fp.AMD(dst) < fp.AMD(core) }) {
		return
	}
	fmax := st.Platform.Power.DVFS().FMax

	type cand struct {
		core  int
		gain  float64
		found bool
	}
	best := cand{gain: 1.02} // require > 2% predicted speedup
	for _, core := range p.scr.coresByID(&p.pinning) {
		if fp.AMD(dst) >= fp.AMD(core) {
			continue
		}
		th := p.pinning.pins[core].th
		cur := st.Platform.Perf.TimePerInstr(th.Perf, core, fmax)
		better := st.Platform.Perf.TimePerInstr(th.Perf, dst, fmax)
		if g := cur / better; g > best.gain {
			best = cand{core: core, gain: g, found: true}
		}
	}
	if !best.found {
		return
	}
	// Steady-state thermal check of the move using measured powers.
	powers := slices.Grow(p.powers[:0], n)[:n]
	p.powers = powers
	idle := st.Platform.Power.IdleWatts
	for i := range powers {
		powers[i] = idle
	}
	for core, pn := range p.pinning.pins {
		if pn.used {
			powers[core] = pn.th.AvgPower
		}
	}
	powers[dst] = powers[best.core]
	powers[best.core] = idle
	ss := st.Platform.Thermal.SteadyState(powers)
	if st.Platform.Thermal.MaxCoreTemp(ss) < p.tdtm-p.margin {
		p.pinning.move(best.core, dst)
	}
}
