package sched

import (
	"repro/internal/sim"
)

// Reactive is a classic feedback thermal governor (the style of Linux's
// "ondemand"/thermal step-wise governors): no model, no prediction — each
// control epoch it steps a core's frequency down when the core is hot and
// back up when it has cooled. Included as the naive baseline the
// model-driven policies (TSP, PCMig, HotPotato) are implicitly measured
// against.
type Reactive struct {
	tdtm float64
	// downMargin: step down when temp > tdtm − downMargin.
	downMargin float64
	// upMargin: step up when temp < tdtm − upMargin ( > downMargin).
	upMargin float64
	epoch    float64

	pinning  pinning
	coreFreq map[int]float64
	// out and freqs are the Assignment and Freq of every Decision returned,
	// refilled each Decide (borrowed until the next, see sim.Decision).
	out   map[sim.ThreadID]int
	freqs []float64
	scr   scratch
}

// NewReactive builds the governor for a DTM threshold.
func NewReactive(tdtm float64) *Reactive {
	return &Reactive{
		tdtm:       tdtm,
		downMargin: 2,
		upMargin:   6,
		epoch:      1e-3,
		pinning:    newPinning(),
		coreFreq:   map[int]float64{},
		out:        map[sim.ThreadID]int{},
	}
}

// Name implements sim.Scheduler.
func (r *Reactive) Name() string { return "reactive" }

// Decide implements sim.Scheduler.
func (r *Reactive) Decide(st *sim.State) sim.Decision {
	r.pinning.sync(st)

	// Same gang-FIFO admission as every other scheduler; cache-aware
	// ordering like PCMig.
	r.scr.admitByAMD(st, &r.pinning, r.scr.queuedTasks(st))

	// Step-wise per-core DVFS feedback.
	d := st.Platform.Power.DVFS()
	r.freqs = fillFreq(r.freqs, st.Platform.NumCores(), d.FMax)
	for core, pn := range r.pinning.pins {
		if !pn.used {
			continue
		}
		f, ok := r.coreFreq[core]
		if !ok {
			f = d.FMax
		}
		switch {
		case st.CoreTemps[core] > r.tdtm-r.downMargin:
			f = d.StepDown(f)
		case st.CoreTemps[core] < r.tdtm-r.upMargin:
			f = d.StepUp(f)
		}
		r.coreFreq[core] = f
		r.freqs[core] = f
	}

	r.pinning.fill(r.out)
	return sim.Decision{Assignment: r.out, Freq: r.freqs, NextInvoke: r.epoch}
}
