package rotation

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// RingEvaluator is the run-time-optimised form of Algorithm 1 for the
// schedule shapes HotPotato actually evaluates: a constant background power
// field plus one ring whose slot powers rotate. Exploiting linearity, the
// background is folded into the eigenspace once, and each epoch's deviation
// touches only the ring's cores — O(N·size) per epoch instead of O(N²).
//
// Build it once per thermal model (it precomputes W = V⁻¹B⁻¹ and the core
// rows of V — the design-time α/β constants of Algorithm 1) and reuse it for
// every evaluation.
type RingEvaluator struct {
	c *Calculator
	// wT[j] is the j-th core's power-to-eigenspace column of W = V⁻¹B⁻¹,
	// stored row-major for fast accumulation: n×N.
	wT *matrix.Dense
	// vCore is the core-row block of V: n×N (maps eigenspace back to core
	// temperatures only).
	vCore *matrix.Dense

	// Scratch reused across PeakRingRotation calls — the reason a
	// RingEvaluator is confined to one goroutine (docs/CONCURRENCY.md).
	// After the first call for a given ring size, an evaluation allocates
	// nothing.
	decay []float64   // e^{−λτ} per eigenmode
	yBase []float64   // eigenspace image of the background power field
	y     [][]float64 // per-epoch deviation images, grown to the largest δ seen
	z     []float64   // Horner accumulator of the periodic forcing
	u     []float64   // periodic-steady-state eigenstate
	coreT []float64   // core temperatures at one epoch boundary
}

// NewRingEvaluator precomputes the design-time constants. Against a
// sparse-mode model (Calculator.Iterative) there is no eigenbasis to fold
// into; the evaluator is then a thin adapter whose PeakRingRotation
// synthesizes the rotation plan and delegates to the calculator's iterative
// solver (periodic.go) — correct within IterTol, but allocating and taking
// milliseconds per evaluation where the eigenbasis fast path takes tens of
// microseconds.
func (c *Calculator) NewRingEvaluator() *RingEvaluator {
	if c.Iterative() {
		return &RingEvaluator{c: c}
	}
	N := c.nNodes
	n := c.n
	wFull := c.vinv.Mul(c.binv) // N×N; power only enters at core nodes
	wT := matrix.New(n, N)
	for j := 0; j < n; j++ {
		for k := 0; k < N; k++ {
			wT.Set(j, k, wFull.At(k, j))
		}
	}
	vCore := matrix.New(n, N)
	for i := 0; i < n; i++ {
		for k := 0; k < N; k++ {
			vCore.Set(i, k, c.v.At(i, k))
		}
	}
	return &RingEvaluator{
		c: c, wT: wT, vCore: vCore,
		decay: make([]float64, N),
		yBase: make([]float64, N),
		z:     make([]float64, N),
		u:     make([]float64, N),
		coreT: make([]float64, n),
	}
}

// PeakRingRotation returns the steady-periodic peak core temperature (°C) of
// the schedule: every core holds base[core] watts except the ring cores,
// where slot i's power slotWatts[i] executes on ringCores[(i+e) mod size]
// during epoch e. The rotation period is δ = len(ringCores) epochs of τ
// seconds.
func (e *RingEvaluator) PeakRingRotation(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	c := e.c
	n := c.n
	N := c.nNodes
	size := len(ringCores)
	if tau <= 0 {
		return 0, fmt.Errorf("rotation: epoch length τ must be positive, got %g", tau)
	}
	if len(base) != n {
		return 0, fmt.Errorf("rotation: base power has %d cores, want %d", len(base), n)
	}
	if size == 0 {
		return 0, fmt.Errorf("rotation: empty ring")
	}
	if len(slotWatts) != size {
		return 0, fmt.Errorf("rotation: %d slot powers for ring of %d cores", len(slotWatts), size)
	}
	for _, cr := range ringCores {
		if cr < 0 || cr >= n {
			return 0, fmt.Errorf("rotation: ring core %d out of range", cr)
		}
	}
	if e.wT == nil {
		// Sparse-mode fallback: materialize the ring schedule as a Plan and
		// run the iterative evaluator (which counts the evaluation metric).
		powers := make([][]float64, size)
		for ep := range powers {
			p := append([]float64(nil), base...)
			for i, w := range slotWatts {
				p[ringCores[(i+ep)%size]] = w
			}
			powers[ep] = p
		}
		res, err := c.Evaluate(Plan{Tau: tau, Powers: powers})
		if err != nil {
			return 0, err
		}
		return res.Peak, nil
	}
	metricEvals.Inc()

	decay := e.decay
	for k, l := range c.lambda {
		decay[k] = math.Exp(-l * tau)
	}

	// Background image in eigenspace: yBase = W·P_base. W's rows are the
	// transposed columns in wT, so accumulate column-wise.
	yBase := e.yBase
	for k := range yBase {
		yBase[k] = 0
	}
	for j := 0; j < n; j++ {
		w := base[j]
		if w == 0 {
			continue
		}
		row := e.wT.RowView(j)
		for k := 0; k < N; k++ {
			yBase[k] += w * row[k]
		}
	}

	// Per-epoch deviation images: only the ring's cores differ from base.
	// The rows live in the evaluator's scratch, grown to the largest ring
	// evaluated so far.
	for len(e.y) < size {
		e.y = append(e.y, make([]float64, N))
	}
	y := e.y[:size]
	for ep := 0; ep < size; ep++ {
		ye := y[ep]
		copy(ye, yBase)
		for i, watts := range slotWatts {
			core := ringCores[(i+ep)%size]
			d := watts - base[core]
			if d == 0 {
				continue
			}
			row := e.wT.RowView(core)
			for k := 0; k < N; k++ {
				ye[k] += d * row[k]
			}
		}
	}

	// Horner accumulation of the periodic forcing, then the fixed point
	// (the geometric-series closed form of Eqs. 9–10).
	z := e.z
	for k := range z {
		z[k] = 0
	}
	for ep := 0; ep < size; ep++ {
		for k := 0; k < N; k++ {
			z[k] = decay[k]*z[k] + (1-decay[k])*y[ep][k]
		}
	}
	u := e.u
	for k := 0; k < N; k++ {
		denom := 1 - math.Exp(-c.lambda[k]*tau*float64(size))
		if denom <= 0 {
			return 0, fmt.Errorf("rotation: non-decaying eigenmode %d", k)
		}
		u[k] = z[k] / denom
	}

	// Walk one period; track the hottest core at epoch boundaries (Eq. 11).
	ambient := c.m.Ambient()
	peak := math.Inf(-1)
	for ep := 0; ep < size; ep++ {
		for k := 0; k < N; k++ {
			u[k] = decay[k]*u[k] + (1-decay[k])*y[ep][k]
		}
		e.vCore.MulVecTo(e.coreT, u)
		if t := matrix.VecMax(e.coreT); t > peak {
			peak = t
		}
	}
	return peak + ambient, nil
}
