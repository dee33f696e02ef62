// Package thermal implements the compact RC thermal model of paper §III-B
// (Eq. 1–3) and the MatEx-style transient solver of Eq. 4 [22]. The network
// is built HotSpot-style [15] from the floorplan: one silicon node per core,
// one heat-spreader node per core, and a single heatsink node coupled to the
// ambient. The resulting matrices have exactly the structure the paper's
// peak-temperature derivation requires: A diagonal positive (capacitances),
// B symmetric positive definite (conductances), so C = −A⁻¹B is negative
// definite and diagonalizable with real negative eigenvalues.
package thermal

import (
	"fmt"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

// Solver backend names accepted by Config.Solver. The empty string is
// equivalent to SolverAuto, so a zero Config keeps selecting sensibly.
const (
	// SolverAuto picks SolverDense below SparseAutoNodeThreshold nodes and
	// SolverSparse above it.
	SolverAuto = "auto"
	// SolverDense factorizes B densely (Cholesky inverse + generalized
	// eigendecomposition) — exact propagator, O(N²) per step, O(N³) setup.
	// The oracle the sparse path is differentially tested against.
	SolverDense = "dense"
	// SolverSparse keeps B as CSR with a banded-arrowhead Cholesky for
	// steady states and a Krylov expm·v transient kernel — O(nnz·m) per
	// step, never materializing an N×N matrix. Required for big chips
	// (64×64 dense would need ≥ 0.5 GB per matrix and an infeasible
	// eigendecomposition).
	SolverSparse = "sparse"
)

// SparseAutoNodeThreshold is the node count above which SolverAuto selects
// the sparse backend: 8×8 chips (N = 129) stay dense, 16×16 (N = 513) and
// larger go sparse. The crossover is measured in docs/PERFORMANCE.md.
const SparseAutoNodeThreshold = 512

// resolveSolver maps a validated Config.Solver to the concrete backend.
func resolveSolver(choice string, nodes int) string {
	switch choice {
	case SolverDense:
		return SolverDense
	case SolverSparse:
		return SolverSparse
	default: // "" or SolverAuto (validate rejects the rest)
		if nodes > SparseAutoNodeThreshold {
			return SolverSparse
		}
		return SolverDense
	}
}

// Config holds the RC network parameters. Values are calibrated such that a
// Table I style core (0.81 mm², 4 GHz, ≈8 W compute-bound) reaches ≈80 °C
// from a 45 °C ambient — the regime of the paper's motivational example.
type Config struct {
	// Capacitances, J/K.
	SiCapacitance          float64 `json:"si_capacitance"`            // silicon node, per core
	SpCapacitance          float64 `json:"sp_capacitance"`            // spreader node, per core
	SinkCapacitancePerCore float64 `json:"sink_capacitance_per_core"` // heatsink node scales with chip size

	// Conductances, W/K.
	GLateralSi    float64 `json:"g_lateral_si"`    // between neighbouring silicon nodes
	GVertical     float64 `json:"g_vertical"`      // silicon → spreader, per core
	GLateralSp    float64 `json:"g_lateral_sp"`    // between neighbouring spreader nodes
	GSpreaderSink float64 `json:"g_spreader_sink"` // spreader segment → heatsink, per core
	// GSpreaderEdgeBonus adds extra spreader→sink conductance per exposed
	// die edge of a cell (1 for edge cells, 2 for corners), modelling the
	// heat spreader extending beyond the die: border cores cool better, so
	// the chip centre runs hottest — the thermal heterogeneity of §III-A.
	GSpreaderEdgeBonus  float64 `json:"g_spreader_edge_bonus"`   // fraction of GSpreaderSink per exposed edge
	GSinkAmbientPerCore float64 `json:"g_sink_ambient_per_core"` // heatsink → ambient, scales with chip size

	Ambient float64 `json:"ambient"` // ambient temperature, °C (paper §VI: 45)

	// Solver selects the numerical backend: SolverDense, SolverSparse, or
	// SolverAuto / "" to pick by platform size (sparse above
	// SparseAutoNodeThreshold nodes). Both backends agree to ≤ 1e-9 K on
	// every query — the equivalence the golden differential tests pin —
	// but in sparse mode the dense artifacts (BInv, Eigen, Propagator)
	// are nil; see those methods.
	Solver string `json:"solver,omitempty"`
}

// DefaultConfig returns the calibrated model parameters.
func DefaultConfig() Config {
	return Config{
		SiCapacitance:          4.25e-4,
		SpCapacitance:          8.4e-3,
		SinkCapacitancePerCore: 0.5,
		GLateralSi:             0.045,
		GVertical:              0.20,
		GLateralSp:             0.40,
		GSpreaderSink:          0.50,
		GSpreaderEdgeBonus:     0.25,
		GSinkAmbientPerCore:    0.40,
		Ambient:                45.0,
	}
}

// Model is a compact RC thermal model over a floorplan. Which factorization
// it carries depends on the resolved solver backend (Solver()): dense mode
// holds B, B⁻¹ (its core columns also packed into panels for the steady
// state), the generalized eigendecomposition and the propagators built from
// it; sparse mode holds a CSR conductance matrix with a banded-arrowhead
// Cholesky and no N×N artifacts at all. Either way a Model is immutable after construction and
// freely shareable between goroutines.
type Model struct {
	fp  *floorplan.Floorplan
	cfg Config

	n int // cores
	N int // thermal nodes = 2n + 1

	solver string // resolved backend: SolverDense or SolverSparse

	aDiag []float64 // A: diagonal thermal capacitance matrix
	g     []float64 // G: conductance to ambient per node

	// Dense-mode artifacts (nil in sparse mode).
	b         *matrix.Dense            // B: symmetric conductance matrix
	binv      *matrix.Dense            // B⁻¹ (used by Eq. 3 and the rotation math)
	binvCores *matrix.Panels           // B⁻¹[:, :n], the steady state's product
	eig       *matrix.GeneralizedEigen // factorization of A⁻¹B (λ > 0)

	// Sparse-mode artifacts (nil in dense mode).
	sp *sparseSolver

	steadyAmbient []float64 // B⁻¹·T_amb·G — the all-idle steady state

	// Lazily computed core block of B⁻¹ (CoreInfluence).
	coreInflOnce sync.Once
	coreInfl     *matrix.Dense

	// Dense-mode propagators e^{C·dt}, one per step size (NewStepper).
	props propagatorCache
}

// New builds and factorizes the RC model for the given floorplan.
func New(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	n := fp.NumCores()
	m := &Model{fp: fp, cfg: cfg, n: n, N: 2*n + 1}
	if err := m.finish(m.build()); err != nil {
		return nil, err
	}
	return m, nil
}

// finish factorizes the assembled conductance matrix under the resolved
// solver backend and precomputes the all-idle steady state. Shared by New
// and NewStacked.
func (m *Model) finish(builder *matrix.SparseBuilder) error {
	m.props.limit = maxPropagatorDoubles
	m.solver = resolveSolver(m.cfg.Solver, m.N)
	if m.solver == SolverSparse {
		sp, err := newSparseSolver(builder.ToCSR(), m.aDiag)
		if err != nil {
			return err
		}
		m.sp = sp
	} else {
		m.b = builder.ToDense()
		// B is SPD by construction; Cholesky both certifies that and
		// inverts it faster than LU.
		chol, err := matrix.FactorCholesky(m.b)
		if err != nil {
			return fmt.Errorf("thermal: conductance matrix not SPD: %w", err)
		}
		if m.binv, err = chol.Inverse(); err != nil {
			return fmt.Errorf("thermal: inverting conductance matrix: %w", err)
		}
		m.binvCores = m.binv.Panels(m.n)
		if m.eig, err = matrix.SymDefEigen(m.aDiag, m.b); err != nil {
			return fmt.Errorf("thermal: eigendecomposition failed: %w", err)
		}
	}
	m.steadyAmbient = m.solveB(matrix.VecScale(m.cfg.Ambient, m.g))
	return nil
}

// solveB solves B·x = p, allocating the result — the mode-agnostic solve
// both backends provide (dense: precomputed inverse; sparse: banded
// arrowhead Cholesky). Hot paths use SteadyStateInto instead.
func (m *Model) solveB(p []float64) []float64 {
	out := make([]float64, m.N)
	if m.sp != nil {
		m.sp.solveInto(out, p, make([]float64, m.N-1))
	} else {
		m.binv.MulVecTo(out, p)
	}
	return out
}

func validate(cfg Config) error {
	checks := []struct {
		name string
		v    float64
	}{
		{"SiCapacitance", cfg.SiCapacitance},
		{"SpCapacitance", cfg.SpCapacitance},
		{"SinkCapacitancePerCore", cfg.SinkCapacitancePerCore},
		{"GVertical", cfg.GVertical},
		{"GSpreaderSink", cfg.GSpreaderSink},
		{"GSinkAmbientPerCore", cfg.GSinkAmbientPerCore},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("thermal: %s must be positive, got %g", c.name, c.v)
		}
	}
	if cfg.GLateralSi < 0 || cfg.GLateralSp < 0 {
		return fmt.Errorf("thermal: lateral conductances must be non-negative")
	}
	if cfg.GSpreaderEdgeBonus < 0 {
		return fmt.Errorf("thermal: spreader edge bonus must be non-negative, got %g", cfg.GSpreaderEdgeBonus)
	}
	return ValidateSolver(cfg.Solver)
}

// ValidateSolver checks a Config.Solver value. "" is accepted as SolverAuto.
// It is exported so declarative layers (RunSpec validation, CLI flags) can
// reject a bad solver name with the same message model construction would.
func ValidateSolver(name string) error {
	switch name {
	case "", SolverAuto, SolverDense, SolverSparse:
		return nil
	default:
		return fmt.Errorf("thermal: unknown solver %q (want %q, %q or %q)",
			name, SolverAuto, SolverDense, SolverSparse)
	}
}

// build assembles A, B and G, emitting B as sparse triplets so either
// backend can finalize it (finish). B is a weighted graph Laplacian plus
// the ambient conductance on the sink's diagonal, hence symmetric positive
// definite; the corresponding entry of G carries the same conductance so
// that zero power yields T = ambient everywhere. The sink is the last node
// — the arrowhead invariant the sparse backend relies on.
func (m *Model) build() *matrix.SparseBuilder {
	n := m.n
	N := m.N
	sink := 2 * n

	m.aDiag = make([]float64, N)
	m.g = make([]float64, N)
	bb := matrix.NewSparseBuilder(N, N)

	for i := 0; i < n; i++ {
		m.aDiag[i] = m.cfg.SiCapacitance
		m.aDiag[n+i] = m.cfg.SpCapacitance
	}
	m.aDiag[sink] = m.cfg.SinkCapacitancePerCore * float64(n)

	addCoupling := func(i, j int, g float64) {
		if g == 0 {
			return
		}
		bb.Add(i, j, -g)
		bb.Add(j, i, -g)
		bb.Add(i, i, g)
		bb.Add(j, j, g)
	}

	for i := 0; i < n; i++ {
		// Lateral couplings (count each edge once).
		for _, nb := range m.fp.Neighbors(i) {
			if nb > i {
				addCoupling(i, nb, m.cfg.GLateralSi)
				addCoupling(n+i, n+nb, m.cfg.GLateralSp)
			}
		}
		// Vertical stack. Border spreader cells conduct extra heat to the
		// sink through the spreader area extending beyond the die.
		addCoupling(i, n+i, m.cfg.GVertical)
		exposed := 4 - len(m.fp.Neighbors(i))
		gSink := m.cfg.GSpreaderSink * (1 + float64(m.cfg.GSpreaderEdgeBonus*float64(exposed)))
		addCoupling(n+i, sink, gSink)
	}

	gAmb := m.cfg.GSinkAmbientPerCore * float64(n)
	bb.Add(sink, sink, gAmb)
	m.g[sink] = gAmb
	return bb
}

// NumCores returns the number of cores n.
func (m *Model) NumCores() int { return m.n }

// NumNodes returns the number of thermal nodes N = 2n+1.
func (m *Model) NumNodes() int { return m.N }

// Ambient returns the ambient temperature in °C.
func (m *Model) Ambient() float64 { return m.cfg.Ambient }

// Floorplan returns the floorplan the model was built over.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// ADiag returns a copy of the diagonal of the capacitance matrix A.
func (m *Model) ADiag() []float64 {
	out := make([]float64, len(m.aDiag))
	copy(out, m.aDiag)
	return out
}

// Solver returns the resolved solver backend, SolverDense or SolverSparse
// (auto selection already applied).
func (m *Model) Solver() string { return m.solver }

// B returns a copy of the conductance matrix as a dense N×N matrix. In
// sparse mode this materializes the CSR — O(N²) memory — so it is meant for
// tests and small-model inspection; hot paths use SparseB or the solver
// methods instead.
func (m *Model) B() *matrix.Dense {
	if m.sp != nil {
		return m.sp.bs.ToDense()
	}
	return m.b.Clone()
}

// SparseB returns the conductance matrix in CSR form, or nil in dense mode.
// The caller must not modify it (CSR is immutable; this is shared state).
func (m *Model) SparseB() *matrix.CSR {
	if m.sp == nil {
		return nil
	}
	return m.sp.bs
}

// BInv returns the precomputed B⁻¹, or nil in sparse mode, where the
// inverse is never materialized — use CoreInfluence for the core block, or
// Stepper.SteadyStateInto / SteadyState for solves. The caller must not
// modify it.
func (m *Model) BInv() *matrix.Dense { return m.binv }

// CoreInfluence returns the n×n core block of B⁻¹: entry (i, j) is the
// steady-state temperature rise of core i per watt on core j. It is
// computed lazily on first call — free in dense mode, n banded solves in
// sparse mode — then cached; safe for concurrent callers. The caller must
// not modify the returned matrix.
func (m *Model) CoreInfluence() *matrix.Dense {
	m.coreInflOnce.Do(func() {
		inf := matrix.New(m.n, m.n)
		if m.sp == nil {
			for i := 0; i < m.n; i++ {
				for j := 0; j < m.n; j++ {
					inf.Set(i, j, m.binv.At(i, j))
				}
			}
		} else {
			p := make([]float64, m.N)
			x := make([]float64, m.N)
			scratch := make([]float64, m.N-1)
			for j := 0; j < m.n; j++ {
				p[j] = 1
				m.sp.solveInto(x, p, scratch)
				p[j] = 0
				for i := 0; i < m.n; i++ {
					inf.Set(i, j, x[i])
				}
			}
		}
		m.coreInfl = inf
	})
	return m.coreInfl
}

// G returns a copy of the ambient conductance vector.
func (m *Model) G() []float64 {
	out := make([]float64, len(m.g))
	copy(out, m.g)
	return out
}

// Eigen returns the factorization of A⁻¹B: positive eigenvalues Lambda,
// eigenvectors V and V⁻¹. The eigenvalues of C = −A⁻¹B are −Lambda. In
// sparse mode it returns nil — no eigendecomposition exists; transient
// evaluation goes through the Krylov Stepper and iterative consumers (the
// rotation calculator) must fall back to stepping. Callers must not modify
// the returned value.
func (m *Model) Eigen() *matrix.GeneralizedEigen { return m.eig }

// DecayRateLowerBound returns μ_lb = 1/‖B⁻¹·a‖_∞ (1/s, a the capacitance
// diagonal), a rigorous lower bound on the slowest decay rate of the
// network: every eigenvalue of A⁻¹B (Eigen().Lambda) is at least μ_lb, so
// e^{C·t} shrinks every mode by at least e^{−μ_lb·t}. B is a Stieltjes
// matrix (SPD with non-positive off-diagonals), so B⁻¹ ≥ 0 entrywise and
// 1/μ_min = ρ(B⁻¹A) ≤ ‖B⁻¹A‖_∞ = ‖B⁻¹·a‖_∞. It costs one steady-state
// solve in either solver mode; docs/THEORY.md §7.4 uses it to certify the
// sparse periodic steady state.
func (m *Model) DecayRateLowerBound() float64 {
	return 1 / matrix.VecNormInf(m.solveB(m.aDiag))
}

// AmbientSteady returns the all-idle steady state B⁻¹·T_amb·G (= ambient at
// every node). The caller must not modify it.
func (m *Model) AmbientSteady() []float64 { return m.steadyAmbient }

// ExtendPower lifts a per-core power vector (length n) to a per-node vector
// (length N) with zeros on spreader and sink nodes.
func (m *Model) ExtendPower(coreWatts []float64) []float64 {
	p := make([]float64, m.N)
	m.ExtendPowerInto(p, coreWatts)
	return p
}

// ExtendPowerInto is the destination-passing form of ExtendPower: dst (length
// N) receives coreWatts on the core nodes and zeros elsewhere. No allocation.
func (m *Model) ExtendPowerInto(dst, coreWatts []float64) {
	m.checkCorePower(coreWatts)
	if len(dst) != m.N {
		panic(fmt.Sprintf("thermal: extended power destination length %d, want %d nodes", len(dst), m.N))
	}
	copy(dst, coreWatts)
	for i := m.n; i < m.N; i++ {
		dst[i] = 0
	}
}

// SteadyState solves Eq. 3: T_steady = B⁻¹P + B⁻¹·T_amb·G for a per-core
// power vector, returning the temperature of all N nodes in °C. Works in
// both solver modes; the zero-allocation twin is SteadyStateInto.
func (m *Model) SteadyState(coreWatts []float64) []float64 {
	t := make([]float64, m.N)
	var scratch []float64
	if m.sp != nil {
		scratch = make([]float64, m.N-1)
	}
	m.SteadyStateInto(t, coreWatts, scratch)
	return t
}

// SteadyStateInto is SteadyState into dst (length N) with no allocation.
// Dense mode multiplies only B⁻¹'s core columns (the rest of the extended
// power is zero) and ignores scratch; sparse mode extends the power into
// dst and solves in place, with scratch (length N−1) for the banded solve.
// dst must alias neither coreWatts nor scratch. Safe for concurrent callers
// with distinct buffers.
func (m *Model) SteadyStateInto(dst, coreWatts, scratch []float64) {
	if m.sp != nil {
		m.ExtendPowerInto(dst, coreWatts)
		m.sp.solveInto(dst, dst, scratch)
	} else {
		m.coreColumnsSolve(dst, coreWatts)
	}
	matrix.VecAddTo(dst, m.steadyAmbient)
}

// coreColumnsSolve sets dst (length N) = B⁻¹·P for per-core power coreWatts
// in dense mode, multiplying only B⁻¹'s first n columns, packed once into
// panels. For a finite B⁻¹ this is bit-identical to solving on the
// extended power, whose other entries are zero: each skipped term is ±0,
// the sum starts at +0 and can never become −0, and adding ±0 leaves it
// unchanged.
func (m *Model) coreColumnsSolve(dst, coreWatts []float64) {
	m.checkCorePower(coreWatts)
	m.binvCores.MulVecTo(dst, coreWatts)
}

// checkCorePower panics unless coreWatts has one entry per core.
func (m *Model) checkCorePower(coreWatts []float64) {
	if len(coreWatts) != m.n {
		panic(fmt.Sprintf("thermal: power vector length %d, want %d cores", len(coreWatts), m.n))
	}
}

// InitialTemps returns the simulation starting point: every node at ambient
// (the paper's T_init assumption in §IV).
func (m *Model) InitialTemps() []float64 {
	return matrix.Constant(m.N, m.cfg.Ambient)
}

// MaxCoreTemp returns the hottest core temperature in the node vector t.
func (m *Model) MaxCoreTemp(t []float64) float64 {
	return matrix.VecMax(t[:m.n])
}
