package sched

import (
	"repro/internal/sim"
)

// HotPotatoDVFS is the paper's stated future work (§VII): synchronous thread
// rotation unified with DVFS. It behaves exactly like HotPotato while
// rotation alone can hold the thermal threshold; when even the fastest
// rotation (τ = τ_min) is predicted unsafe, it trims the chip-wide frequency
// one DVFS step at a time until Algorithm 1 predicts safety, and raises the
// frequency back toward peak as soon as rotation regains headroom.
//
// Candidate frequencies are evaluated by projecting each thread's measured
// power along the P(f) curve (the above-idle component scales with the
// active-power ratio) and re-running the Algorithm 1 check — the same
// machinery, one extra knob.
type HotPotatoDVFS struct {
	*HotPotato
	plat *sim.Platform
	freq float64
	// freqs is the Freq of every Decision returned (borrowed until the next
	// Decide, see sim.Decision).
	freqs []float64
	// lastAdjust rate-limits frequency moves to one step per control period.
	lastAdjust float64
	// adjustEvery is the minimum time between frequency steps.
	adjustEvery float64
}

// NewHotPotatoDVFS builds the rotation+DVFS scheduler.
func NewHotPotatoDVFS(plat *sim.Platform, tdtm float64, opts ...HotPotatoOption) *HotPotatoDVFS {
	return &HotPotatoDVFS{
		HotPotato:   NewHotPotato(plat, tdtm, opts...),
		plat:        plat,
		freq:        plat.Power.DVFS().FMax,
		adjustEvery: 1e-3,
	}
}

// Name implements sim.Scheduler.
func (h *HotPotatoDVFS) Name() string { return "hotpotato-dvfs" }

// Freq returns the current chip-wide frequency (for instrumentation).
func (h *HotPotatoDVFS) Freq() float64 { return h.freq }

// Decide implements sim.Scheduler.
func (h *HotPotatoDVFS) Decide(st *sim.State) sim.Decision {
	dec := h.HotPotato.Decide(st)

	if st.Time-h.lastAdjust >= h.adjustEvery {
		h.lastAdjust = st.Time
		h.adjustFrequency(st)
	}

	h.freqs = fillFreq(h.freqs, st.Platform.NumCores(), h.freq)
	dec.Freq = h.freqs
	return dec
}

// adjustFrequency moves the chip frequency one DVFS step per call: down when
// even τ_min rotation at the current frequency is predicted unsafe, up when
// the next level would still be safe.
func (h *HotPotatoDVFS) adjustFrequency(st *sim.State) {
	d := h.plat.Power.DVFS()

	// Safety at the current frequency (measurements were taken at it, so no
	// projection needed).
	if h.evalPeak(st) >= h.tdtm-h.delta {
		// Rotation has already been tightened by HotPotato.Decide; if it is
		// at its floor and still unsafe, DVFS is the remaining knob.
		if h.tau <= h.tauMin+1e-12 && h.freq > d.FMin {
			h.freq = d.StepDown(h.freq)
		}
		return
	}

	// Headroom: probe one step up by projecting powers to the higher level.
	if h.freq >= d.FMax {
		return
	}
	next := d.StepUp(h.freq)
	h.powerScale = h.projectionScale(next)
	safe := h.evalPeak(st) < h.tdtm-h.delta
	h.powerScale = 1
	if safe {
		h.freq = next
	}
}

// projectionScale returns the factor by which the above-idle component of a
// measured power changes when moving the chip from the current frequency to
// target. ActivePower is linear in nominal watts, so the ratio is
// benchmark-independent.
func (h *HotPotatoDVFS) projectionScale(target float64) float64 {
	cur := h.plat.Power.ActivePower(1, h.freq)
	if cur <= 0 {
		return 1
	}
	return h.plat.Power.ActivePower(1, target) / cur
}
