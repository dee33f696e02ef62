package rotation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/matrix"
)

// ringtable.go: the design-time half of the ring evaluator. A response
// table H of (ring, τ) holds, for each epoch e of the δ-epoch period, the
// core temperature rise (K) at the end of epoch e of the periodic steady
// state in which one watt runs in slot 0 — on ring[e mod δ] during epoch e
// — and every other core is unpowered. Slot i's power is slot 0's periodic
// input shifted by i epochs, so by uniqueness of the periodic steady state
// its response is H[(e+i) mod δ]: one δ×n table per (ring, τ) covers every
// slot (docs/THEORY.md §4).

// tableTol is the certified error (kelvin per watt of slot power) of a
// sparse-mode response table: a few times above the ~1.5e-13 K/W floor
// double precision can certify on DefaultConfig chips, so a ring carrying
// Σ|wᵢ| watts is within Σ|wᵢ|·tableTol of the exact steady state — inside
// the default IterTol up to 100 kW of ring power.
const tableTol = 1e-12

// maxTableDoubles bounds the response tables a Calculator retains (64 MiB).
// HotPotato's τ levels on the paper's chip need 32 KB per τ, a 16×16 chip
// 512 KB. Only callers sweeping arbitrary τ values reach the bound — a
// server's cached platform serves every spec's tau, tau_min and tau_max —
// and tables beyond it are built for the caller that asked and dropped.
const maxTableDoubles = 8 << 20

// ringTable is one immutable response table.
type ringTable struct {
	tau   float64
	cores []int
	n     int
	h     []float64 // δ×n, row e = core rises at the end of epoch e
}

func (t *ringTable) row(e int) []float64 { return t.h[e*t.n : (e+1)*t.n] }

// tableCache holds a Calculator's shared response tables. Each key is built
// once: the first caller builds it, concurrent callers of the same key wait
// on its sync.Once, callers of other keys proceed.
type tableCache struct {
	mu      sync.Mutex
	entries map[string]*tableEntry
	doubles int // table storage retained in entries
	limit   int // bound on doubles, maxTableDoubles outside tests

	// Eigenbasis constants of the dense builder, built with the first
	// table: the core columns of W = V⁻¹B⁻¹ stored as rows (n×N), and the
	// core rows of V (n×N).
	eigenOnce sync.Once
	wT, vCore *matrix.Dense
}

type tableEntry struct {
	once sync.Once
	t    *ringTable
	err  error
}

// ringTable returns the response table of (τ, cores), building it on first
// use, and whether the calculator retains it for later callers.
func (c *Calculator) ringTable(tau float64, cores []int) (*ringTable, bool, error) {
	key := make([]byte, 0, 8+4*len(cores))
	key = binary.LittleEndian.AppendUint64(key, math.Float64bits(tau))
	for _, cr := range cores {
		key = binary.LittleEndian.AppendUint32(key, uint32(cr))
	}
	tc := &c.tables
	tc.mu.Lock()
	ent := tc.entries[string(key)]
	retained := ent != nil
	if ent == nil {
		ent = &tableEntry{}
		if size := len(cores) * c.n; tc.doubles+size <= tc.limit {
			tc.entries[string(key)] = ent
			tc.doubles += size
			retained = true
		}
	}
	tc.mu.Unlock()
	ent.once.Do(func() {
		t := &ringTable{tau: tau, cores: append([]int(nil), cores...), n: c.n}
		if c.Iterative() {
			t.h, ent.err = c.sparseTable(tau, t.cores)
		} else {
			t.h, ent.err = c.denseTable(tau, t.cores)
		}
		if ent.err == nil {
			ent.t = t
		}
	})
	return ent.t, retained, ent.err
}

// denseTable walks the slot-0 periodic steady state in the eigenbasis: the
// closed form of Eqs. 9–10 for a forcing that is column cores[e] of W in
// epoch e, then one period of Eq. 11's walk recording every epoch boundary.
func (c *Calculator) denseTable(tau float64, cores []int) ([]float64, error) {
	tc := &c.tables
	tc.eigenOnce.Do(func() {
		N, n := c.nNodes, c.n
		wFull := c.vinv.Mul(c.binv) // power only enters at core nodes
		tc.wT = matrix.New(n, N)
		tc.vCore = matrix.New(n, N)
		for j := 0; j < n; j++ {
			for k := 0; k < N; k++ {
				tc.wT.Set(j, k, wFull.At(k, j))
				tc.vCore.Set(j, k, c.v.At(j, k))
			}
		}
	})
	N, n, size := c.nNodes, c.n, len(cores)
	decay := make([]float64, N)
	for k, l := range c.lambda {
		decay[k] = math.Exp(-l * tau)
	}
	// Horner accumulation of the periodic forcing, then the fixed point.
	u := make([]float64, N)
	for _, cr := range cores {
		y := tc.wT.RowView(cr)
		for k := range u {
			u[k] = decay[k]*u[k] + (1-decay[k])*y[k]
		}
	}
	for k, l := range c.lambda {
		denom := -math.Expm1(-l * tau * float64(size))
		if denom <= 0 {
			return nil, fmt.Errorf("rotation: non-decaying eigenmode %d (λ=%g); thermal model must be dissipative", k, l)
		}
		u[k] /= denom
	}
	h := make([]float64, size*n)
	for ep, cr := range cores {
		y := tc.wT.RowView(cr)
		for k := range u {
			u[k] = decay[k]*u[k] + (1-decay[k])*y[k]
		}
		tc.vCore.MulVecTo(h[ep*n:(ep+1)*n], u)
	}
	return h, nil
}

// sparseTable solves the slot-0 periodic steady state by the certified
// conjugate gradients of periodic.go, at tableTol, and walks one period
// with the Krylov stepper. Everything runs relative to ambient: a one-watt
// response is ~0.01–1 K, and carrying the ~45 °C ambient offset through
// the forcing would put its rounding above tableTol.
func (c *Calculator) sparseTable(tau float64, cores []int) ([]float64, error) {
	size := len(cores)
	stepper, err := c.m.NewStepper(tau)
	if err != nil {
		return nil, err
	}
	N, n := c.nNodes, c.n
	// s[e]: steady state of the epoch-e power, one watt on cores[e]; x0,
	// the CG starting guess: the steady state of the period-mean power.
	s := make([][]float64, size)
	p := make([]float64, N)
	x0 := make([]float64, N)
	for e, cr := range cores {
		p[cr] = 1
		s[e] = make([]float64, N)
		stepper.SolveBInto(s[e], p)
		p[cr] = 0
		matrix.VecAddTo(x0, s[e])
	}
	for i := range x0 {
		x0[i] /= float64(size)
	}
	// step advances x by one epoch under power e: x ← s_e + E·(x − s_e).
	diff := make([]float64, N)
	step := func(x []float64, e int) {
		matrix.VecSubTo(diff, x, s[e])
		stepper.PropagateTo(x, diff)
		matrix.VecAddTo(x, s[e])
	}
	g := make([]float64, N)
	for e := range cores {
		step(g, e)
	}
	x, _, err := c.solvePeriodic(g, x0, nil, stepper, float64(size), tableTol)
	if err != nil {
		return nil, err
	}
	h := make([]float64, size*n)
	for e := range cores {
		step(x, e)
		copy(h[e*n:(e+1)*n], x[:n])
	}
	return h, nil
}
