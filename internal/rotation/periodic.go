package rotation

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/thermal"
)

// periodic.go: the matrix-free periodic-steady-state evaluator used when the
// thermal model runs the sparse backend and therefore offers no eigenbasis.
//
// Relative to the ambient steady state, one rotation period maps a start
// state x to M·x + g, with M = e^{C·δτ} the period propagator and g the
// period stepped from ambient under the plan's powers, so the start of the
// periodic steady state solves
//
//	(I − M)·x = g .
//
// A·C = −B is symmetric, so M is self-adjoint in the capacitance inner
// product ⟨u,v⟩_A = Σ aᵢuᵢvᵢ and I − M is positive definite there, with
// spectrum in [λ_lb, 1), λ_lb = 1 − e^{−μ_lb·δτ} from the model's
// decay-rate bound (thermal.Model.DecayRateLowerBound). Conjugate gradients
// in that inner product solve it with one homogeneous Krylov expm·v over δτ
// per iteration (thermal.Stepper.PropagateTo), starting from the steady
// state of the period-mean power. The preconditioner I + B⁻¹A/δτ, also
// self-adjoint there, maps mode k's eigenvalue 1 − e^{−s} (s = μ_k·δτ) to
// (1 − e^{−s})(1 + 1/s) ∈ [1, 1.3] at the cost of one banded solve, so the
// iteration count is flat in chip size and δτ. Because ‖e‖_A ≤ ‖r‖_A/λ_lb
// and |eᵢ| ≤ ‖e‖_A/√aᵢ for the error e of residual r, the stop rule
//
//	‖r‖_A / (λ_lb·√min aᵢ) < IterTol
//
// certifies the start-state error in kelvin at every node; it is checked on
// a recomputed true residual before a result is accepted.
// docs/THEORY.md §7.4 derives it and reports iteration counts.

// maxMatvecs caps the period-propagator applications of one evaluation. A
// certified solve takes 9–14 (docs/THEORY.md §7.4); hitting the cap means
// IterTol is below what double precision can certify for this plan, and the
// evaluation fails with the achieved bound rather than spinning on.
const maxMatvecs = 200

// evaluateIterative computes the plan's periodic steady state by conjugate
// gradients and walks one period recording epoch boundaries. The plan is
// already validated.
func (c *Calculator) evaluateIterative(plan Plan) (*Result, error) {
	metricEvals.Inc()
	delta := plan.Delta()
	stepper, err := c.m.NewStepper(plan.Tau)
	if err != nil {
		return nil, err
	}
	t, _, err := c.periodicStart(plan, stepper)
	if err != nil {
		return nil, err
	}

	res := &Result{
		EpochEnd: make([][]float64, delta),
		Peak:     math.Inf(-1),
		Start:    append([]float64(nil), t...),
	}
	for e := 0; e < delta; e++ {
		stepper.StepTo(t, t, plan.Powers[e])
		res.EpochEnd[e] = append([]float64(nil), t...)
		for core := 0; core < c.n; core++ {
			if t[core] > res.Peak {
				res.Peak = t[core]
				res.PeakEpoch = e
				res.PeakCore = core
			}
		}
	}
	return res, nil
}

// periodicStart returns the absolute start-of-period temperatures T* of the
// plan's periodic steady state, certified to IterTol, and how many times it
// applied the period propagator M. stepper steps one epoch of the plan.
func (c *Calculator) periodicStart(plan Plan, stepper *thermal.Stepper) ([]float64, int, error) {
	delta := float64(plan.Delta())
	amb := c.m.AmbientSteady()
	N := c.nNodes

	// g: one period stepped from the ambient steady state, relative to it.
	g := append([]float64(nil), amb...)
	for _, p := range plan.Powers {
		stepper.StepTo(g, g, p)
	}
	matrix.VecSubTo(g, g, amb)

	// Starting guess x0: the steady state of the period-mean power, exact in
	// the slow (heatsink) modes that dominate the error of any other guess.
	mean := make([]float64, c.n)
	for _, p := range plan.Powers {
		matrix.VecAddTo(mean, p)
	}
	for i := range mean {
		mean[i] /= delta
	}
	x0 := make([]float64, N)
	stepper.SteadyStateInto(x0, mean)
	matrix.VecSubTo(x0, x0, amb)
	return c.solvePeriodic(g, x0, amb, stepper, delta, c.iterTol)
}

// solvePeriodic solves (I − M)·x = g by conjugate gradients from the guess
// x0 (relative to ambient; consumed) until the start-state error is
// certified below tol kelvin, and returns x + offset (offset may be nil) and
// the number of period propagations. stepper steps one epoch; a period is
// delta of them.
func (c *Calculator) solvePeriodic(g, x0, offset []float64, stepper *thermal.Stepper, delta, tol float64) ([]float64, int, error) {
	period, err := c.m.NewStepper(stepper.Dt() * delta)
	if err != nil {
		return nil, 0, err
	}
	N := c.nNodes
	dotA := func(u, v []float64) float64 {
		var s float64
		for i, a := range c.a {
			s += float64(a * u[i] * v[i])
		}
		return s
	}
	matvecs := 0
	// applyK sets dst = (I − M)·v.
	applyK := func(dst, v []float64) {
		period.PropagateTo(dst, v)
		for i := range dst {
			dst[i] = v[i] - dst[i]
		}
		matvecs++
	}
	// precondition sets z = (I + B⁻¹A/δτ)·r.
	ar := make([]float64, N)
	precondition := func(z, r []float64) {
		for i, a := range c.a {
			ar[i] = a * r[i]
		}
		stepper.SolveBInto(z, ar)
		for i := range z {
			z[i] = r[i] + z[i]/period.Dt()
		}
	}
	// CG solves for the correction d = x − x0 from d = 0, so its iterates and
	// residuals stay small next to x0's heatsink rise, keeping the rounding
	// floor of the residual (and so of the certificate) low.
	r0 := make([]float64, N)
	applyK(r0, x0)
	for i := range r0 {
		r0[i] = g[i] - r0[i]
	}
	d := make([]float64, N)
	r := append([]float64(nil), r0...)
	// errorBound turns residual r into the certified start-state error, K.
	lamLB := -math.Expm1(-c.muLB * period.Dt())
	errorBound := func() float64 { return math.Sqrt(dotA(r, r)) / (lamLB * c.sqrtMinA) }

	z := make([]float64, N)
	p := make([]float64, N)
	q := make([]float64, N)
	var rz float64
	restart := func() {
		precondition(z, r)
		copy(p, z)
		rz = dotA(r, z)
	}
	restart()
	fresh := true // r is a true residual, not the CG recurrence's
	certified := math.Inf(1)
	for {
		bound := errorBound()
		if fresh {
			certified = math.Min(certified, bound)
		}
		if bound < tol {
			if fresh {
				if offset == nil {
					matrix.VecAddTo(x0, d)
				} else {
					for i := range x0 {
						x0[i] += d[i] + offset[i]
					}
				}
				return x0, matvecs, nil
			}
			// The recurrence drifts from the true residual at the rounding
			// floor, and only the true one certifies: recompute it and
			// restart from it.
			applyK(r, d)
			for i := range r {
				r[i] = r0[i] - r[i]
			}
			restart()
			fresh = true
			continue
		}
		if matvecs >= maxMatvecs {
			return nil, matvecs, fmt.Errorf("rotation: periodic steady state not certified within %d period propagations: best start-state error bound %.3g K exceeds the tolerance %g K", maxMatvecs, certified, tol)
		}
		applyK(q, p)
		pq := dotA(p, q)
		if !(pq > 0) {
			return nil, matvecs, fmt.Errorf("rotation: periodic steady state CG broke down (⟨p,(I−M)p⟩_A = %g) at start-state error bound %.3g K", pq, certified)
		}
		alpha := rz / pq
		for i := range d {
			d[i] += float64(alpha * p[i])
			r[i] -= float64(alpha * q[i])
		}
		precondition(z, r)
		rzNew := dotA(r, z)
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + float64(beta*p[i])
		}
		rz = rzNew
		fresh = false
	}
}
