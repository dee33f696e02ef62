package rotation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/thermal"
)

// EvaluateFine computes the steady-periodic peak like Evaluate, but samples
// `subsamples` points inside every epoch instead of only the epoch
// boundaries Algorithm 1 inspects (Eq. 11). Within an epoch each node's
// temperature relaxes exponentially toward that epoch's steady state, and a
// node heating toward a hot steady state can peak strictly inside the epoch
// before the next epoch pulls it down — so the boundary-only peak is a
// (slight) underestimate. Subsampling quantifies that gap.
//
// subsamples = 1 reproduces Evaluate exactly. It is a test oracle: the
// schedulers evaluate at epoch boundaries only, as Algorithm 1 does.
func (c *Calculator) EvaluateFine(plan Plan, subsamples int) (*Result, error) {
	if subsamples < 1 {
		return nil, fmt.Errorf("rotation: subsamples must be ≥ 1, got %d", subsamples)
	}
	if err := plan.Validate(c.n); err != nil {
		return nil, err
	}
	if c.Iterative() {
		return c.evaluateFineIterative(plan, subsamples)
	}
	delta := plan.Delta()
	N := c.nNodes
	tau := plan.Tau
	sub := tau / float64(subsamples)

	decayEpoch := make([]float64, N) // e^{−λτ}
	decaySub := make([]float64, N)   // e^{−λτ/subsamples}
	for k, l := range c.lambda {
		decayEpoch[k] = math.Exp(-l * tau)
		decaySub[k] = math.Exp(-l * sub)
	}

	// Eigenspace images of the per-epoch steady states (node-space
	// intermediates reused across epochs, as in Evaluate).
	y := make([][]float64, delta)
	p := make([]float64, N)
	se := make([]float64, N)
	for e := 0; e < delta; e++ {
		c.m.ExtendPowerInto(p, plan.Powers[e])
		c.binv.MulVecTo(se, p)
		y[e] = c.vinv.MulVec(se)
	}

	// Period fixed point (same as Evaluate).
	z := make([]float64, N)
	for e := 0; e < delta; e++ {
		for k := 0; k < N; k++ {
			z[k] = decayEpoch[k]*z[k] + (1-decayEpoch[k])*y[e][k]
		}
	}
	u := make([]float64, N)
	for k := 0; k < N; k++ {
		denom := 1 - math.Exp(-c.lambda[k]*tau*float64(delta))
		if denom <= 0 {
			return nil, fmt.Errorf("rotation: non-decaying eigenmode %d", k)
		}
		u[k] = z[k] / denom
	}

	ambient := c.m.AmbientSteady()
	res := &Result{
		EpochEnd: make([][]float64, delta),
		Peak:     math.Inf(-1),
	}
	res.Start = matrix.VecAdd(c.v.MulVec(u), ambient)

	te := make([]float64, N)
	for e := 0; e < delta; e++ {
		for s := 0; s < subsamples; s++ {
			for k := 0; k < N; k++ {
				u[k] = decaySub[k]*u[k] + (1-decaySub[k])*y[e][k]
			}
			c.v.MulVecTo(te, u)
			abs := matrix.VecAdd(te, ambient)
			for core := 0; core < c.n; core++ {
				if abs[core] > res.Peak {
					res.Peak = abs[core]
					res.PeakEpoch = e
					res.PeakCore = core
				}
			}
			if s == subsamples-1 {
				res.EpochEnd[e] = abs
			}
		}
	}
	return res, nil
}

// evaluateFineIterative is EvaluateFine on a sparse-mode model: from the
// certified start of the periodic steady state it walks the period in
// sub-steps of τ/subsamples, recording every sub-step.
func (c *Calculator) evaluateFineIterative(plan Plan, subsamples int) (*Result, error) {
	stepper, err := c.m.NewStepper(plan.Tau)
	if err != nil {
		return nil, err
	}
	t, _, err := c.periodicStart(plan, stepper)
	if err != nil {
		return nil, err
	}
	sub, err := c.m.NewStepper(plan.Tau / float64(subsamples))
	if err != nil {
		return nil, err
	}
	res := &Result{
		EpochEnd: make([][]float64, plan.Delta()),
		Peak:     math.Inf(-1),
		Start:    append([]float64(nil), t...),
	}
	for e := range res.EpochEnd {
		for s := 0; s < subsamples; s++ {
			sub.StepTo(t, t, plan.Powers[e])
			for core := 0; core < c.n; core++ {
				if t[core] > res.Peak {
					res.Peak = t[core]
					res.PeakEpoch = e
					res.PeakCore = core
				}
			}
		}
		res.EpochEnd[e] = append([]float64(nil), t...)
	}
	return res, nil
}

func TestEvaluateFineValidation(t *testing.T) {
	c := newCalc(t, 2, 2, thermal.DefaultConfig())
	plan := Plan{Tau: 1e-3, Powers: [][]float64{{1, 1, 1, 1}}}
	if _, err := c.EvaluateFine(plan, 0); err == nil {
		t.Error("zero subsamples accepted")
	}
	if _, err := c.EvaluateFine(Plan{Tau: -1, Powers: plan.Powers}, 2); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestEvaluateFineOneSubsampleEqualsEvaluate(t *testing.T) {
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	base := matrix.Constant(16, 0.3)
	base[5] = 9
	plan := Rotate(1e-3, base, []int{5, 6, 10, 9})
	coarse, err := c.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := c.EvaluateFine(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coarse.Peak-fine.Peak) > 1e-9 {
		t.Fatalf("subsamples=1 peak %.6f != Evaluate peak %.6f", fine.Peak, coarse.Peak)
	}
	for e := range coarse.EpochEnd {
		if !matrix.VecApproxEqual(coarse.EpochEnd[e], fine.EpochEnd[e], 1e-9) {
			t.Fatalf("epoch-end %d mismatch", e)
		}
	}
}

func TestEvaluateFinePeakAtLeastCoarse(t *testing.T) {
	// Subsampling can only reveal higher peaks, never lower ones.
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	base := matrix.Constant(16, 0.3)
	base[5] = 9
	for _, tau := range []float64{0.5e-3, 2e-3, 8e-3} {
		plan := Rotate(tau, base, []int{5, 6, 10, 9})
		coarse, err := c.PeakTemperature(plan)
		if err != nil {
			t.Fatal(err)
		}
		fine, err := c.EvaluateFine(plan, 16)
		if err != nil {
			t.Fatal(err)
		}
		if fine.Peak < coarse-1e-9 {
			t.Fatalf("τ=%v: fine peak %.4f below coarse %.4f", tau, fine.Peak, coarse)
		}
	}
}

func TestEvaluateFineConverges(t *testing.T) {
	// Doubling the sampling rate changes the peak less and less.
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	base := matrix.Constant(16, 0.3)
	base[5] = 9
	plan := Rotate(4e-3, base, []int{5, 6, 10, 9}) // long epochs: intra-epoch peak matters
	var prev float64
	var deltas []float64
	for _, k := range []int{1, 4, 16, 64} {
		res, err := c.EvaluateFine(plan, k)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			deltas = append(deltas, math.Abs(res.Peak-prev))
		}
		prev = res.Peak
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] > deltas[i-1]+1e-9 {
			t.Fatalf("refinement not converging: deltas %v", deltas)
		}
	}
	if deltas[len(deltas)-1] > 0.05 {
		t.Errorf("still moving %.4f K at 64 subsamples", deltas[len(deltas)-1])
	}
}

// Property: fine and coarse evaluations agree on the period fixed point
// (Start), differing only in where they look for the peak.
func TestPropFineStartMatchesCoarse(t *testing.T) {
	c := newCalc(t, 3, 3, thermal.DefaultConfig())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := make([]float64, 9)
		for i := range base {
			base[i] = r.Float64() * 8
		}
		plan := Rotate((0.3+r.Float64())*1e-3, base, []int{4, 1, 3})
		coarse, err := c.Evaluate(plan)
		if err != nil {
			return false
		}
		fine, err := c.EvaluateFine(plan, 2+r.Intn(8))
		if err != nil {
			return false
		}
		return matrix.VecApproxEqual(coarse.Start, fine.Start, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
