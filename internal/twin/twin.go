// Package twin is the analytical surrogate ("digital twin") of the
// simulator: a closed-form + fitted model that predicts the peak
// steady-state temperature, the transient peak temperature, and the
// makespan of a run in microseconds instead of the milliseconds-to-seconds
// a full interval simulation costs. The serving tier exposes it as
// POST /v1/predict. The model also carries a ring-rotation section, fitted
// against Algorithm 1's ring evaluation; it is calibrated and validated but
// nothing reads it at run time.
//
// The twin is calibrated offline against the full simulator over a seeded
// design grid (see the root package's CalibrateTwin); the artifact is a
// versioned JSON document with its own content hash, committed to the
// repository and loaded at server start. Every estimate travels with a
// conservative confidence bound — the maximum residual observed against the
// simulator during calibration, inflated by a safety factor and a
// small-sample penalty — and the differential property suite
// (twin_diff_test.go) holds the twin to exactly that contract:
// |twin − simulator| ≤ bound on seeded out-of-calibration samples. The
// theory and the bound construction are documented in docs/THEORY.md
// §"Surrogate model and error bounds".
//
// The package is deliberately dependency-light: it knows nothing about
// RunSpecs, platforms, or the simulator. Callers reduce a run to a numeric
// Case (per-core power fields plus a closed-form horizon) and ground truth
// to an Observation; package twin only fits and evaluates.
package twin

import (
	"fmt"
	"math"
)

// Case is one prediction (or calibration) point, fully reduced to numbers:
// the grid geometry, the per-core power fields a run induces, and the
// closed-form timing of its workload. The root package derives a Case from
// an in-domain RunSpec; the twin never sees the spec itself.
type Case struct {
	// Width and Height are the core grid dimensions (the platform bucket).
	Width, Height int
	// Ambient is the ambient temperature in °C.
	Ambient float64
	// HotPower is the per-core power (W) with every thread of every task
	// executing its hottest phase simultaneously — the spatial worst case.
	// The steady-state prediction is the steady peak of this field.
	HotPower []float64
	// AvgPower is the per-core power (W) averaged over the run's horizon:
	// each thread duty-cycled by the fraction of the run it actually
	// executes (serial phases idle the workers, barriers idle the fast
	// threads, arrival staggers idle everyone early).
	AvgPower []float64
	// SteadyHotDeltaC and SteadyAvgDeltaC are the exact steady-state peak
	// temperature rises (K) of the HotPower and AvgPower fields — closed-form
	// linear solves the case builder performs against the platform's thermal
	// model. They are the strongest transient regressors: the transient peak
	// lives between the average-driven quasi-steady rise and the worst-case
	// hot rise, blended by how far toward steady state the horizon gets.
	SteadyHotDeltaC float64
	SteadyAvgDeltaC float64
	// Horizon is the closed-form run length in seconds (the raw makespan
	// estimate); the transient prediction uses it to judge how far toward
	// steady state the chip gets.
	Horizon float64
	// RawMakespan is the closed-form makespan estimate in seconds: for each
	// task its arrival plus the barrier-exact sum of phase times at the
	// pinned cores' interval-model speeds, maximized over tasks.
	RawMakespan float64
}

// Validate checks the case's structural invariants.
func (c Case) Validate() error {
	n := c.Width * c.Height
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("twin: invalid grid %dx%d", c.Width, c.Height)
	case len(c.HotPower) != n:
		return fmt.Errorf("twin: hot power has %d cores, want %d", len(c.HotPower), n)
	case len(c.AvgPower) != n:
		return fmt.Errorf("twin: avg power has %d cores, want %d", len(c.AvgPower), n)
	case !(c.Horizon > 0) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("twin: horizon must be positive and finite, got %g", c.Horizon)
	case math.IsNaN(c.SteadyHotDeltaC) || c.SteadyHotDeltaC < 0 || math.IsInf(c.SteadyHotDeltaC, 0):
		return fmt.Errorf("twin: steady hot delta must be a finite non-negative rise, got %g", c.SteadyHotDeltaC)
	case math.IsNaN(c.SteadyAvgDeltaC) || c.SteadyAvgDeltaC < 0 || math.IsInf(c.SteadyAvgDeltaC, 0):
		return fmt.Errorf("twin: steady avg delta must be a finite non-negative rise, got %g", c.SteadyAvgDeltaC)
	case !(c.RawMakespan > 0) || math.IsInf(c.RawMakespan, 0):
		return fmt.Errorf("twin: raw makespan must be positive and finite, got %g", c.RawMakespan)
	}
	for i, p := range c.HotPower {
		if math.IsNaN(p) || p < 0 {
			return fmt.Errorf("twin: hot power[%d] = %g", i, p)
		}
	}
	for i, p := range c.AvgPower {
		if math.IsNaN(p) || p < 0 {
			return fmt.Errorf("twin: avg power[%d] = %g", i, p)
		}
	}
	return nil
}

// Observation is the simulator's ground truth for a Case: the oracle values
// the twin is fitted against and judged by.
type Observation struct {
	// SteadyTemps are the exact steady-state node temperatures (°C) of the
	// case's HotPower field; only the first Width×Height (core) entries are
	// consumed. Used to fit the spatial influence kernel.
	SteadyTemps []float64
	// SteadyPeakC is the hottest core of SteadyTemps.
	SteadyPeakC float64
	// TransientPeakC is the full simulation's peak core temperature (°C).
	TransientPeakC float64
	// MakespanS is the full simulation's makespan in seconds.
	MakespanS float64
}

// Sample pairs a calibration case with its simulator observation.
type Sample struct {
	Case Case
	Obs  Observation
}

// RingCase is one ring-rotation evaluation point: the inputs of Algorithm
// 1's HotPotato fast path (rotation.RingEvaluator.PeakRingRotation), reduced
// to numbers. The twin's ring model predicts the steady-periodic peak.
type RingCase struct {
	// Width and Height are the grid dimensions (the platform bucket).
	Width, Height int
	// Ambient is the ambient temperature in °C.
	Ambient float64
	// Tau is the rotation epoch length in seconds.
	Tau float64
	// Base is the per-core background power field (W).
	Base []float64
	// RingCores are the rotating ring's core indices.
	RingCores []int
	// SlotWatts are the per-slot powers rotating around the ring.
	SlotWatts []float64
	// SteadyFieldDeltaC is the exact steady-state peak temperature rise (K)
	// of the rotation's time-averaged power field (Base with the ring cores
	// replaced by the mean slot power) — a closed-form linear solve the
	// caller performs against the platform's thermal model. It anchors the
	// ring prediction from below: an infinitely fast rotation averages the
	// slots out and settles exactly there.
	SteadyFieldDeltaC float64
	// SteadyMaxDeltaC is the exact steady peak rise (K) with the rotation
	// frozen at its worst epoch: the maximum over rotation offsets of the
	// steady solve of the instantaneous field (Base with ring core
	// (i+e) mod δ carrying slot i). It anchors the prediction from above —
	// an infinitely slow rotation dwells long enough to reach it — and the
	// fitted model blends the two anchors by the epoch dwell time. See
	// MaxInstantSteadyDelta.
	SteadyMaxDeltaC float64
}

// RingSample pairs a ring case with the exact Algorithm 1 peak (°C).
type RingSample struct {
	Case  RingCase
	PeakC float64
}

// Fixed response-curve constants of the transient features (seconds). They
// mirror the substrate time scales documented in docs/CALIBRATION.md: the
// silicon surface answers in about a millisecond, the heatsink in about a
// second. The fit only sees them through smooth saturating features, so
// their exact values are not critical — the least squares places the weight.
const (
	tauFast = 0.010 // local silicon+spreader response, 10 ms
	tauSlow = 1.0   // heatsink response, 1 s

	// The ring blend gets a small basis of response curves instead of one
	// fixed time constant: the effective local response varies with ring
	// geometry (corner vs. center cores), and the least squares shapes the
	// dwell curve from the basis.
	tauRingA = 0.0003 // fast silicon response against one epoch's dwell
	tauRingB = 0.003  // slow silicon+spreader response against the dwell
	tauRingP = 0.010  // recovery response against the full rotation period
)

// manhattan returns the Manhattan distance between cores a and b on a
// width-wide grid.
func manhattan(width, a, b int) int {
	ax, ay := a%width, a/width
	bx, by := b%width, b/width
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// missingNeighbors returns how many of core i's four grid neighbors fall off
// the die edge: 0 interior, 1 edge, 2 corner. Edge cores lose lateral heat
// spreading paths and run hotter per watt than the pure distance kernel can
// express, so the kernel carries two edge-correction terms (see
// BucketModel.Kernel).
func missingNeighbors(width, height, i int) int {
	x, y := i%width, i/width
	m := 0
	if x == 0 {
		m++
	}
	if x == width-1 {
		m++
	}
	if y == 0 {
		m++
	}
	if y == height-1 {
		m++
	}
	return m
}

// totalPower returns Σ p.
func totalPower(p []float64) float64 {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	return sum
}

// transientFeatures fills x with the transient-peak regressors of a case:
// the exact steady rises of the average and worst-case power fields, each
// entering through the fast (silicon) and slow (heatsink) saturation curves
// of the horizon — [1, sad·g_fast, sad·g_slow, shd·g_fast, shd·g_slow]. The
// least squares places the blend; physically the transient peak lives
// between sad·g and shd·g. x must have length transientDim. Shared verbatim
// between fitting and prediction so the two can never drift.
func transientFeatures(x []float64, c Case) {
	gFast := 1 - math.Exp(-c.Horizon/tauFast)
	gSlow := 1 - math.Exp(-c.Horizon/tauSlow)
	x[0] = 1
	x[1] = c.SteadyAvgDeltaC * gFast
	x[2] = c.SteadyAvgDeltaC * gSlow
	x[3] = c.SteadyHotDeltaC * gFast
	x[4] = c.SteadyHotDeltaC * gSlow
}

// transientDim is the number of transient regressors.
const transientDim = 5

// makespanFeatures fills x with the makespan regressors: [1, RawMakespan].
func makespanFeatures(x []float64, c Case) {
	x[0] = 1
	x[1] = c.RawMakespan
}

// makespanDim is the number of makespan regressors.
const makespanDim = 2

// ringDim is the number of ring regressors.
const ringDim = 7

// ringFeaturesInto fills x with the ring-rotation regressors using field as
// scratch for the time-averaged power field (len = cores):
// [1, SteadyFieldDeltaC, Σfield, rip, rip·g_A(τ), rip·g_B(τ), rip·g_P(τδ)],
// where rip is the ripple headroom SteadyMaxDeltaC − SteadyFieldDeltaC and
// g_T(t) = 1−e^{−t/T}. The two exact steady solves bracket the true
// steady-periodic peak (fast rotation settles at the averaged field, slow
// rotation dwells to the frozen-worst field); the fitted model shapes the
// blend from the dwell- and period-response basis. Allocates nothing.
func ringFeaturesInto(x, field []float64, c RingCase) {
	copy(field, c.Base)
	mean := 0.0
	for _, w := range c.SlotWatts {
		mean += w
	}
	mean /= float64(len(c.SlotWatts))
	for _, core := range c.RingCores {
		field[core] = mean
	}
	rip := c.SteadyMaxDeltaC - c.SteadyFieldDeltaC
	if rip < 0 {
		rip = 0
	}
	period := c.Tau * float64(len(c.RingCores))
	x[0] = 1
	x[1] = c.SteadyFieldDeltaC
	x[2] = totalPower(field)
	x[3] = rip
	x[4] = rip * (1 - math.Exp(-c.Tau/tauRingA))
	x[5] = rip * (1 - math.Exp(-c.Tau/tauRingB))
	x[6] = rip * (1 - math.Exp(-period/tauRingP))
}

// SteadyPeakFunc returns the exact steady-state peak temperature rise (K) of
// a per-core power field — a closed-form linear solve against the platform's
// thermal model (the root package builds one from the cached core-influence
// matrix). The ring model's strongest regressor is this quasi-steady rise of
// the rotation's time-averaged field, so every ring case needs the solve.
// Implementations must not retain the field slice.
type SteadyPeakFunc func(field []float64) float64

// MaxInstantSteadyDelta returns the exact steady peak rise of a rotation
// frozen at its worst epoch (RingCase.SteadyMaxDeltaC): the maximum over
// rotation offsets e of steadyPeak on the instantaneous field, where slot i
// executes on ringCores[(i+e) mod δ] — the evaluator's rotation convention.
// field is caller-provided scratch (len = cores). Allocates nothing beyond
// what steadyPeak does.
func MaxInstantSteadyDelta(field, base []float64, ringCores []int, slotWatts []float64, steadyPeak SteadyPeakFunc) float64 {
	delta := len(ringCores)
	peak := math.Inf(-1)
	for e := 0; e < delta; e++ {
		copy(field, base)
		for i, w := range slotWatts {
			field[ringCores[(i+e)%delta]] = w
		}
		if v := steadyPeak(field); v > peak {
			peak = v
		}
	}
	return peak
}
