package thermal

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/matrix"
)

// stepKrylovTol is the per-step relative error target the sparse stepper
// hands the Krylov kernel; see NewStepper for why it undercuts
// matrix.DefaultKrylovTol.
const stepKrylovTol = 1e-14

// Stepper advances the transient thermal state with a fixed step dt using the
// exact matrix-exponential solution of Eq. 4 (the MatEx method [22]):
//
//	T(t+dt) = T_steady(P) + e^{C·dt} (T(t) − T_steady(P))
//
// In dense mode e^{C·dt} is computed once per step size from the model's
// eigendecomposition, packed into matrix.Panels (the only form kept) and
// shared by every Stepper of that dt, so each step costs one N×N
// propagator product, plus an N×n steady-state product (B⁻¹'s core
// columns, packed the same way) only when the core power differs from the
// previous step's: leakage does not depend on temperature, so equal power
// means an equal steady state, and StepTo reuses it. Both products sum
// exactly as Dense.MulVecTo does on the unpacked matrices.
// In sparse mode the propagator is never materialized: the difference term
// is whitened to v̂ = A^{1/2}(T − T_steady), e^{Ĉ·dt}·v̂ is evaluated by the
// matrix-free Krylov kernel (matrix.KrylovExpm over Â = −A^{−1/2}BA^{−1/2},
// a similarity transform of C), and the result unwhitened — O(nnz·m) per
// step with subspace dimension m chosen adaptively against
// matrix.DefaultKrylovTol. Both paths are exact for power held constant
// over the step, agreeing to well below the 1e-9 K golden bound — the
// interval-simulation contract.
//
// A Stepper owns a scratch block that its methods reuse, so the per-step hot
// path allocates nothing in either mode. The scratch, which includes the
// power the remembered steady state was solved for, makes a Stepper NOT
// goroutine-safe: build one per worker (they are cheap next to the model's
// factorization), per the run-state rule of docs/CONCURRENCY.md. The
// underlying Model remains freely shareable.
type Stepper struct {
	m   *Model
	dt  float64
	exp *matrix.Panels // e^{C·dt}, shared with every Stepper of dt; nil in sparse mode

	// Sparse-mode kernel (nil in dense mode).
	kry          *matrix.KrylovExpm
	solveScratch []float64 // banded-solve scratch, length N−1

	// Scratch reused by the methods (never escapes a call).
	tss   []float64 // steady state for tssWatts, length N
	diff  []float64 // T − T_steady, length N
	white []float64 // whitened propagator input (sparse mode), length N

	// tssWatts is the core power tss was solved for, valid once tssValid
	// is set; StepTo skips the solve while its power is bit-equal to it.
	tssWatts []float64 // length n
	tssValid bool
}

// NewStepper precomputes the transient kernel for step size dt (seconds):
// the dense propagator e^{C·dt}, which the first stepper of dt on the model
// computes and later ones share, or in sparse mode the Krylov scratch (the
// step size is then only used at evaluation time).
func (m *Model) NewStepper(dt float64) (*Stepper, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: step size must be positive, got %g", dt)
	}
	s := &Stepper{
		m: m, dt: dt,
		tss:      make([]float64, m.N),
		diff:     make([]float64, m.N),
		tssWatts: make([]float64, m.n),
	}
	if m.sp != nil {
		// Tighter than matrix.DefaultKrylovTol: the estimate lives in the
		// whitened space, where unwhitening by A^{−1/2} can amplify it by
		// max 1/√a_ii (small silicon capacitances), and step errors
		// accumulate over a trajectory. Two extra orders keep long
		// trajectories inside the 1e-9 K dense-equivalence bound for the
		// cost of about one extra Lanczos dimension per step.
		s.kry = matrix.NewKrylovExpm(newWhitenedOp(m.sp), 0, stepKrylovTol)
		s.solveScratch = make([]float64, m.N-1)
		s.white = make([]float64, m.N)
		return s, nil
	}
	s.exp = m.propagator(dt)
	return s, nil
}

// maxPropagatorDoubles bounds the dense propagators a Model retains (32 MiB).
// A run needs one per step size: 130 KB at 8×8, 2 MB at 16×16. Only callers
// sweeping arbitrary step sizes reach the bound — a server's cached
// platform serves every spec's time_slice — and propagators beyond it are
// built for the stepper that asked and dropped with it.
const maxPropagatorDoubles = 4 << 20

// propagatorCache holds a dense Model's e^{C·dt} per step size, packed into
// panels; the row-major matrix it is computed as is dropped once packed, so
// each entry counts N² doubles against the bound. Each is built once: the
// first caller builds it, concurrent callers of the same dt wait on its
// sync.Once, callers of other step sizes proceed. A built propagator is
// immutable and shared read-only by every Stepper of its dt.
type propagatorCache struct {
	mu      sync.Mutex
	entries map[uint64]*propagatorEntry // by math.Float64bits(dt)
	doubles int                         // matrix storage retained in entries
	limit   int                         // bound on doubles, maxPropagatorDoubles outside tests
}

type propagatorEntry struct {
	once sync.Once
	exp  *matrix.Panels
}

// propagator returns the dense-mode e^{C·dt}, computing it on first use.
func (m *Model) propagator(dt float64) *matrix.Panels {
	pc := &m.props
	key := math.Float64bits(dt)
	pc.mu.Lock()
	ent := pc.entries[key]
	if ent == nil {
		ent = &propagatorEntry{}
		if size := m.N * m.N; pc.doubles+size <= pc.limit {
			if pc.entries == nil {
				pc.entries = map[uint64]*propagatorEntry{}
			}
			pc.entries[key] = ent
			pc.doubles += size
		}
	}
	pc.mu.Unlock()
	ent.once.Do(func() {
		negLambda := matrix.VecScale(-1, m.eig.Lambda) // eigenvalues of C
		ent.exp = matrix.ExpmEigen(m.eig.V, negLambda, m.eig.VInv, dt).Panels(m.N)
	})
	return ent.exp
}

// Dt returns the step size in seconds.
func (s *Stepper) Dt() float64 { return s.dt }

// Step advances the node temperature vector t by dt under the per-core power
// vector coreWatts (held constant for the step) and returns the new node
// temperatures.
func (s *Stepper) Step(t []float64, coreWatts []float64) []float64 {
	next := make([]float64, s.m.N)
	s.StepTo(next, t, coreWatts)
	return next
}

// StepTo advances the node temperature vector t by dt under coreWatts,
// writing the new node temperatures into dst (length N). It allocates
// nothing. dst may alias t — stepping a state in place is the intended hot
// path — but must not alias the stepper's scratch or coreWatts.
//
// When coreWatts is bit-equal (math.Float64bits) to the power of the
// previous StepTo, the steady state solved then is reused: the result is
// bit-identical to solving again. coreWatts is copied, so the caller may
// rewrite it in place between calls.
func (s *Stepper) StepTo(dst, t, coreWatts []float64) {
	if len(t) != s.m.N {
		panic(fmt.Sprintf("thermal: temperature vector length %d, want %d", len(t), s.m.N))
	}
	if !s.tssValid || !bitsEqual(coreWatts, s.tssWatts) {
		s.SteadyStateInto(s.tss, coreWatts)
		copy(s.tssWatts, coreWatts)
		s.tssValid = true
	}
	matrix.VecSubTo(s.diff, t, s.tss)
	s.PropagateTo(dst, s.diff)
	matrix.VecAddTo(dst, s.tss)
}

// PropagateTo applies the homogeneous propagator, dst = e^{C·dt}·v: the
// free decay of a temperature deviation v (length N) over one step with no
// power applied. StepTo is this plus the steady-state offset of its power.
// It allocates nothing; dst must alias neither v nor the stepper's scratch.
//
// In sparse mode a Krylov call whose error estimate misses stepKrylovTol at
// the subspace cap (a step long against the fastest thermal mode, e.g. a
// whole rotation period) is split into two half steps, recursively, so the
// result meets the same accuracy target at any dt.
func (s *Stepper) PropagateTo(dst, v []float64) {
	if len(v) != s.m.N {
		panic(fmt.Sprintf("thermal: propagated vector length %d, want %d", len(v), s.m.N))
	}
	if len(dst) != s.m.N {
		panic(fmt.Sprintf("thermal: propagation destination length %d, want %d", len(dst), s.m.N))
	}
	if s.exp != nil {
		s.exp.MulVecTo(dst, v)
		return
	}
	// Sparse path: whiten, propagate in the Krylov subspace, unwhiten.
	sp := s.m.sp
	for i, x := range v {
		s.white[i] = x * sp.sqrtA[i]
	}
	s.expmWhite(dst, s.dt)
	for i := range dst {
		dst[i] *= sp.invSqrtA[i]
	}
}

// expmWhite sets dst = e^{Â·dt}·s.white, consuming s.white as scratch.
func (s *Stepper) expmWhite(dst []float64, dt float64) {
	dim, est, err := s.kry.ExpmVTo(dst, dt, s.white)
	if err != nil {
		// Only reachable through non-finite inputs: the whitened operator is
		// negative semidefinite by construction, where the kernel cannot
		// fail. Treat like the singular-matrix panics of internal/matrix.
		panic(fmt.Sprintf("thermal: Krylov propagator failed: %v", err))
	}
	// A full-dimension subspace is exact up to roundoff; halving could not
	// improve it.
	if est <= stepKrylovTol || dim >= len(dst) {
		return
	}
	s.expmWhite(dst, dt/2)
	copy(s.white, dst)
	s.expmWhite(dst, dt/2)
}

// bitsEqual reports whether a and b hold the same float64 bit patterns:
// unlike ==, it tells +0 from −0 and matches a NaN to itself.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// SteadyStateInto is Model.SteadyStateInto on the stepper's banded-solve
// scratch. dst must not alias coreWatts or the stepper's scratch. Not
// goroutine-safe (see the Stepper doc).
func (s *Stepper) SteadyStateInto(dst, coreWatts []float64) {
	s.m.SteadyStateInto(dst, coreWatts, s.solveScratch)
}

// SolveBInto solves B·x = p for a node-space vector p (length N) into dst
// (length N) with no allocation: the conductance solve under
// SteadyStateInto, without the ambient offset. dst must alias neither p nor
// the stepper's scratch.
func (s *Stepper) SolveBInto(dst, p []float64) {
	if s.m.sp != nil {
		s.m.sp.solveInto(dst, p, s.solveScratch)
	} else {
		s.m.binv.MulVecTo(dst, p)
	}
}

// Transient simulates from the initial node temperatures t0 under a sequence
// of per-core power vectors (one per step) and returns the temperature
// trajectory including the initial point: len(powers)+1 node vectors. Only
// the returned trajectory rows are allocated.
func (s *Stepper) Transient(t0 []float64, powers [][]float64) [][]float64 {
	out := make([][]float64, 0, len(powers)+1)
	out = append(out, append([]float64(nil), t0...))
	cur := out[0]
	for _, p := range powers {
		next := make([]float64, len(cur))
		s.StepTo(next, cur, p)
		out = append(out, next)
		cur = next
	}
	return out
}
