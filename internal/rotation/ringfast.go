package rotation

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/matrix"
)

// RingEvaluator is the run-time form of Algorithm 1 for the schedule shape
// HotPotato evaluates: a constant background power field plus one ring whose
// slot powers rotate. By linearity the core temperatures at the end of epoch
// e of the periodic steady state are
//
//	T(e) = S·base − Σ_{c∈ring} base[c]·S[:,c] + Σᵢ slotWatts[i]·H[(e+i) mod δ]
//
// with S the n×n core block of B⁻¹ and H the ring's response table for τ
// (ringtable.go): the background minus the ring cores' share of it, plus the
// rotating slots. An evaluation is therefore a table lookup and O(n·δ²)
// multiply-adds on either thermal backend; the tables are built once per
// (ring, τ) and shared by every evaluator of the Calculator.
//
// A RingEvaluator holds per-goroutine scratch: the table pointers it has
// resolved and the image S·base of the last background it saw, so a caller
// that scores several rings against one background (HotPotato's evalPeak)
// pays the n² product once. Confine each evaluator to one goroutine
// (docs/CONCURRENCY.md); create as many as needed — they are cheap.
type RingEvaluator struct {
	c *Calculator

	// memo holds, by τ, the shared tables this evaluator has resolved, so a
	// steady-state lookup takes no lock and allocates nothing. Tables the
	// calculator did not retain are not memoized either.
	memo map[float64][]*ringTable

	base  []float64 // the background of the last call (zero at first)
	sBase []float64 // S·base for it
	bg    []float64 // the background minus the ring cores' share
	coreT []float64 // core temperatures at one epoch boundary
}

// NewRingEvaluator returns an evaluator over the calculator's shared
// response tables. It is cheap: the design-time work happens lazily, once
// per Calculator, on the first evaluation of each (ring, τ).
func (c *Calculator) NewRingEvaluator() *RingEvaluator {
	return &RingEvaluator{
		c:     c,
		memo:  map[float64][]*ringTable{},
		base:  make([]float64, c.n),
		sBase: make([]float64, c.n),
		bg:    make([]float64, c.n),
		coreT: make([]float64, c.n),
	}
}

// PeakRingRotation returns the steady-periodic peak core temperature (°C) of
// the schedule: every core holds base[core] watts except the ring cores,
// where slot i's power slotWatts[i] executes on ringCores[(i+e) mod size]
// during epoch e. The rotation period is δ = len(ringCores) epochs of τ
// seconds.
//
// Against a sparse-mode model the response tables are certified to
// tableTol kelvin per watt, so the result is within Σ|slotWatts|·tableTol
// of the exact periodic steady state; a call whose slot powers would push
// that bound past IterTol is refused with an error.
func (e *RingEvaluator) PeakRingRotation(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	c := e.c
	n := c.n
	size := len(ringCores)
	if !(tau > 0) { // NaN too: it would key a new table per call
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
	if c.Iterative() {
		var sum float64
		for _, w := range slotWatts {
			sum += math.Abs(w)
		}
		if sum*tableTol > c.iterTol {
			return 0, fmt.Errorf("rotation: ring power %g W exceeds the %g W the response tables certify to IterTol %g K", sum, c.iterTol/tableTol, c.iterTol)
		}
	}
	metricEvals.Inc()
	tab, err := e.table(tau, ringCores)
	if err != nil {
		return 0, err
	}

	// Background: S·base, reused while base repeats, minus the ring cores'
	// share, which the rotating slots replace. S is symmetric (B is), so
	// its row c serves as column c.
	s := c.m.CoreInfluence()
	if !slices.Equal(e.base, base) {
		copy(e.base, base)
		s.MulVecTo(e.sBase, base)
	}
	bg := e.bg
	copy(bg, e.sBase)
	for _, cr := range ringCores {
		w := base[cr]
		col := s.RowView(cr)[:len(bg)]
		for i := range bg {
			bg[i] -= w * col[i]
		}
	}

	// Walk one period of the table; track the hottest core at epoch
	// boundaries (Eq. 11). Slot i's response is slot 0's shifted by i epochs.
	// The non-zero slots are added two per pass over t: Go evaluates
	// t[k] + a + b left to right, so each core sees the same roundings as
	// one pass per slot, at half the loads and stores of t.
	peak := math.Inf(-1)
	t := e.coreT
	for ep := 0; ep < size; ep++ {
		copy(t, bg)
		var w0 float64
		var r0 []float64
		pending := false
		for i, w := range slotWatts {
			if w == 0 {
				continue
			}
			row := tab.row((ep + i) % size)
			if !pending {
				w0, r0, pending = w, row, true
				continue
			}
			r0, row = r0[:len(t)], row[:len(t)]
			for k := range t {
				t[k] = t[k] + w0*r0[k] + w*row[k]
			}
			pending = false
		}
		if pending {
			r0 = r0[:len(t)]
			for k := range t {
				t[k] += w0 * r0[k]
			}
		}
		if m := matrix.VecMax(t); m > peak {
			peak = m
		}
	}
	return peak + c.m.Ambient(), nil
}

// table returns the response table of (τ, ring), from the evaluator's memo
// when it has resolved it before and from the Calculator's shared cache
// otherwise.
func (e *RingEvaluator) table(tau float64, ringCores []int) (*ringTable, error) {
	for _, t := range e.memo[tau] {
		if slices.Equal(t.cores, ringCores) {
			return t, nil
		}
	}
	t, retained, err := e.c.ringTable(tau, ringCores)
	if err != nil {
		return nil, err
	}
	if retained {
		e.memo[tau] = append(e.memo[tau], t)
	}
	return t, nil
}
