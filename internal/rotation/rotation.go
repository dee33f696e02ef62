// Package rotation implements the paper's central analytical contribution
// (§IV, Eqs. 5–11, Algorithm 1): a computationally efficient method to
// compute the peak temperature of a synchronous thread rotation on an RC
// thermal model, evaluated in its periodic steady state.
//
// A rotation executes δ epochs of length τ; during epoch e the chip consumes
// the per-core power vector P_e, and after δ epochs the pattern repeats (each
// thread is back on its starting core). With E = e^{Cτ} and per-epoch steady
// states S_e = B⁻¹P_e (relative to ambient), the epoch recurrence is
//
//	T_e = E·T_{e−1} + (I − E)·S_e ,
//
// and the start-of-period temperature of the periodic steady state is the
// fixed point
//
//	T* = (I − E^δ)⁻¹ · Σ_{e=1..δ} E^{δ−e} (I − E) S_e ,
//
// which is exactly the closed geometric-series form of the paper's Eq. 10:
// because C = −A⁻¹B is negative definite, E's eigenvalues e^{λτ} lie in
// (0,1) and the series Σ E^{iδ} converges to (I − E^δ)⁻¹ (Eq. 9).
//
// The Calculator performs the design-time phase of Algorithm 1 once
// (eigendecomposition of A⁻¹B, B⁻¹) and evaluates any plan at run time in
// O(δ·N²) by working in the eigenbasis.
package rotation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/thermal"
)

// Plan describes one synchronous rotation: epochs of length Tau seconds, with
// Powers[e] giving the per-core power (watts) during epoch e. len(Powers) is
// the rotation period δ. For a thread rotation the vectors are permutations
// of one another, but the math accepts any periodic power pattern.
type Plan struct {
	Tau    float64
	Powers [][]float64
}

// Delta returns the rotation period δ (number of epochs).
func (p Plan) Delta() int { return len(p.Powers) }

// Validate checks the plan against a model with n cores.
func (p Plan) Validate(n int) error {
	if p.Tau <= 0 {
		return fmt.Errorf("rotation: epoch length τ must be positive, got %g", p.Tau)
	}
	if len(p.Powers) == 0 {
		return errors.New("rotation: plan needs at least one epoch")
	}
	for e, pw := range p.Powers {
		if len(pw) != n {
			return fmt.Errorf("rotation: epoch %d power vector has %d cores, want %d", e, len(pw), n)
		}
		for c, w := range pw {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("rotation: epoch %d core %d has invalid power %g", e, c, w)
			}
		}
	}
	return nil
}

// Rotate returns a plan that rotates the given single-epoch power vector
// around the core sequence: epoch e places base[cores[i]]'s thread on
// cores[(i+e) mod len(cores)]. Cores not in the sequence keep their base
// power in every epoch.
func Rotate(tau float64, base []float64, cores []int) Plan {
	delta := len(cores)
	powers := make([][]float64, delta)
	for e := 0; e < delta; e++ {
		p := append([]float64(nil), base...)
		for i, c := range cores {
			p[cores[(i+e)%delta]] = base[c]
		}
		powers[e] = p
	}
	return Plan{Tau: tau, Powers: powers}
}

// Result carries the detailed output of a peak-temperature evaluation.
type Result struct {
	Peak      float64     // hottest core temperature at any epoch boundary, °C
	PeakEpoch int         // epoch index (0-based) at whose end the peak occurs
	PeakCore  int         // core attaining the peak
	EpochEnd  [][]float64 // absolute node temperatures at the end of each epoch
	Start     []float64   // absolute node temperatures at the period start (T*)
}

// Calculator evaluates rotation plans against a thermal model. Creating a
// Calculator performs the design-time phase of Algorithm 1; evaluations are
// then cheap enough for run-time scheduling use.
//
// Against a sparse-mode model (thermal.SolverSparse) no eigendecomposition
// exists, and the calculator solves for the period map's fixed point by
// conjugate gradients over the model's Krylov propagator instead
// (periodic.go) — same results within IterTol, higher per-evaluation cost.
// Iterative() reports which regime is active.
type Calculator struct {
	m      *thermal.Model
	n      int // cores
	nNodes int

	// Eigenbasis constants (nil when the model is sparse — see Iterative).
	lambda []float64     // eigenvalues of A⁻¹B (positive)
	v      *matrix.Dense // eigenvectors of A⁻¹B
	vinv   *matrix.Dense
	binv   *matrix.Dense

	// Conjugate-gradient constants of the iterative path (periodic.go; zero
	// in eigenbasis mode): the capacitance diagonal weighting its inner
	// product, the model's decay-rate lower bound μ_lb (1/s) and √min aᵢ.
	a        []float64
	muLB     float64
	sqrtMinA float64

	iterTol float64 // certified start-state tolerance of the iterative path, K

	// tables holds the ring evaluator's response tables (ringtable.go),
	// built lazily and shared by every RingEvaluator of the Calculator.
	tables tableCache
}

// DefaultIterTol is the default convergence tolerance (kelvin) of the
// iterative periodic-steady-state evaluator used against sparse-mode
// models. The bound is on the start-of-period state error at every node,
// certified by the conjugate-gradient residual bound of periodic.go.
const DefaultIterTol = 1e-7

// NewCalculator runs the design-time phase against model m: the eigenbasis
// capture in dense mode; in sparse mode one steady-state solve for the
// decay-rate bound that certifies the iterative evaluator.
func NewCalculator(m *thermal.Model) *Calculator {
	c := &Calculator{
		m:       m,
		n:       m.NumCores(),
		nNodes:  m.NumNodes(),
		iterTol: DefaultIterTol,
		tables:  tableCache{entries: map[string]*tableEntry{}, limit: maxTableDoubles},
	}
	if eig := m.Eigen(); eig != nil {
		c.lambda = eig.Lambda
		c.v = eig.V
		c.vinv = eig.VInv
		c.binv = m.BInv()
		return c
	}
	c.a = m.ADiag()
	c.muLB = m.DecayRateLowerBound()
	minA := math.Inf(1)
	for _, a := range c.a {
		minA = math.Min(minA, a)
	}
	c.sqrtMinA = math.Sqrt(minA)
	return c
}

// Model returns the thermal model the calculator was built for.
func (c *Calculator) Model() *thermal.Model { return c.m }

// Iterative reports whether the calculator evaluates plans iteratively
// (sparse-mode model, conjugate gradients) rather than in the eigenbasis.
func (c *Calculator) Iterative() bool { return c.v == nil }

// SetIterTol overrides the convergence tolerance (kelvin) of the iterative
// evaluator. It has no effect in eigenbasis mode.
func (c *Calculator) SetIterTol(tol float64) {
	if tol > 0 {
		c.iterTol = tol
	}
}

// PeakTemperature returns the peak core temperature (°C) the plan reaches in
// its periodic steady state, evaluated at epoch boundaries (Algorithm 1,
// Eq. 11). It is a safe upper bound for any execution that starts at or below
// the periodic steady state.
func (c *Calculator) PeakTemperature(plan Plan) (float64, error) {
	res, err := c.Evaluate(plan)
	if err != nil {
		return 0, err
	}
	return res.Peak, nil
}

// Evaluate computes the full periodic steady state of the plan. Against a
// sparse-mode model it falls back to the iterative solver (periodic.go).
func (c *Calculator) Evaluate(plan Plan) (*Result, error) {
	if err := plan.Validate(c.n); err != nil {
		return nil, err
	}
	if c.Iterative() {
		return c.evaluateIterative(plan, 1)
	}
	metricEvals.Inc()
	delta := plan.Delta()
	N := c.nNodes
	tau := plan.Tau

	// Eigenbasis constants for this τ.
	decay := make([]float64, N) // e^{−λ_k τ}  (diagonal of E in eigenspace)
	for k, l := range c.lambda {
		decay[k] = math.Exp(-l * tau)
	}

	// Per-epoch steady states S_e = B⁻¹ P_e (relative to ambient), then
	// their eigenspace images y_e = V⁻¹ S_e. The node-space intermediates
	// live in two per-call scratch vectors reused across epochs.
	y := make([][]float64, delta)
	p := make([]float64, N)
	se := make([]float64, N)
	for e := 0; e < delta; e++ {
		c.m.ExtendPowerInto(p, plan.Powers[e])
		c.binv.MulVecTo(se, p)
		y[e] = c.vinv.MulVec(se)
	}

	// z_k = Σ_e e^{−λ_k (δ−e) τ} (1 − e^{−λ_k τ}) y_e[k], accumulated with a
	// Horner-style recurrence: z ← D·z + (I−D)·y_e for e = 1..δ.
	z := make([]float64, N)
	for e := 0; e < delta; e++ {
		for k := 0; k < N; k++ {
			z[k] = decay[k]*z[k] + (1-decay[k])*y[e][k]
		}
	}

	// Start-of-period fixed point in eigenspace: u* = (I − D^δ)⁻¹ z.
	u := make([]float64, N)
	for k := 0; k < N; k++ {
		dDelta := math.Exp(-c.lambda[k] * tau * float64(delta))
		denom := 1 - dDelta
		if denom <= 0 {
			return nil, fmt.Errorf("rotation: non-decaying eigenmode %d (λ=%g); thermal model must be dissipative", k, c.lambda[k])
		}
		u[k] = z[k] / denom
	}

	ambient := c.m.AmbientSteady()
	res := &Result{
		EpochEnd: make([][]float64, delta),
		Peak:     math.Inf(-1),
	}
	start := c.v.MulVec(u)
	res.Start = matrix.VecAdd(start, ambient)

	// Walk one period from u*, recording absolute temperatures at each epoch
	// end and tracking the peak over cores. te is reused across epochs; the
	// only per-epoch allocation is the EpochEnd row the caller receives.
	te := make([]float64, N)
	for e := 0; e < delta; e++ {
		for k := 0; k < N; k++ {
			u[k] = decay[k]*u[k] + (1-decay[k])*y[e][k]
		}
		c.v.MulVecTo(te, u)
		abs := matrix.VecAdd(te, ambient)
		res.EpochEnd[e] = abs
		for core := 0; core < c.n; core++ {
			if abs[core] > res.Peak {
				res.Peak = abs[core]
				res.PeakEpoch = e
				res.PeakCore = core
			}
		}
	}
	return res, nil
}

// BruteForcePeak computes the same peak temperature by explicit transient
// simulation: it steps the thermal model from ambient through `periods` full
// rotation periods with `substeps` integration steps per epoch and returns
// the hottest core temperature observed at epoch boundaries during the final
// period. It is the obviously-correct reference used to validate Evaluate;
// with enough periods the two agree to within the convergence tolerance of
// the slowest thermal mode.
func (c *Calculator) BruteForcePeak(plan Plan, periods, substeps int) (float64, error) {
	if err := plan.Validate(c.n); err != nil {
		return 0, err
	}
	if periods < 1 || substeps < 1 {
		return 0, fmt.Errorf("rotation: periods (%d) and substeps (%d) must be at least 1", periods, substeps)
	}
	stepper, err := c.m.NewStepper(plan.Tau / float64(substeps))
	if err != nil {
		return 0, err
	}
	t := c.m.InitialTemps()
	peak := math.Inf(-1)
	for p := 0; p < periods; p++ {
		last := p == periods-1
		for e := 0; e < plan.Delta(); e++ {
			for s := 0; s < substeps; s++ {
				stepper.StepTo(t, t, plan.Powers[e])
			}
			if last {
				if mc := c.m.MaxCoreTemp(t); mc > peak {
					peak = mc
				}
			}
		}
	}
	return peak, nil
}
