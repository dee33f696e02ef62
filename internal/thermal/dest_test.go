package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

// Tests for the zero-allocation stepping path: StepTo/SteadyStateInto/
// ExtendPowerInto must be bit-identical to the allocating APIs (the engine
// swaps between them freely) and must not allocate.

func destModel(t testing.TB, w, h int) *Model {
	t.Helper()
	fp, err := floorplan.New(w, h, 0.0009)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randPower(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() * 8
	}
	return p
}

func TestPropStepToBitIdenticalToStep(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tv := m.InitialTemps()
		for i := range tv {
			tv[i] += r.Float64() * 20
		}
		p := randPower(r, m.NumCores())
		want := s.Step(tv, p)
		dst := make([]float64, m.NumNodes())
		s.StepTo(dst, tv, p)
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		// In-place stepping (dst aliases t) must give the same answer.
		s.StepTo(tv, tv, p)
		for i := range tv {
			if tv[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropSteadyStateIntoBitIdentical(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPower(r, m.NumCores())
		want := m.SteadyState(p)
		dst := make([]float64, m.NumNodes())
		s.SteadyStateInto(dst, p)
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestExtendPowerIntoClearsStaleTail(t *testing.T) {
	m := destModel(t, 4, 4)
	dst := make([]float64, m.NumNodes())
	for i := range dst {
		dst[i] = 99
	}
	p := make([]float64, m.NumCores())
	p[3] = 7
	m.ExtendPowerInto(dst, p)
	want := m.ExtendPower(p)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("node %d: ExtendPowerInto = %v, ExtendPower = %v", i, dst[i], want[i])
		}
	}
}

func TestTransientMatchesManualStepLoop(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	powers := make([][]float64, 6)
	for i := range powers {
		powers[i] = randPower(r, m.NumCores())
	}
	traj := s.Transient(m.InitialTemps(), powers)
	if len(traj) != len(powers)+1 {
		t.Fatalf("trajectory has %d rows, want %d", len(traj), len(powers)+1)
	}
	cur := m.InitialTemps()
	for i := range cur {
		if traj[0][i] != cur[i] {
			t.Fatal("trajectory row 0 is not the initial state")
		}
	}
	for e, p := range powers {
		cur = s.Step(cur, p)
		for i := range cur {
			if traj[e+1][i] != cur[i] {
				t.Fatalf("trajectory row %d differs from Step loop at node %d", e+1, i)
			}
		}
	}
}

// Transient must not alias its rows: mutating one row leaves the rest intact.
func TestTransientRowsIndependent(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p := randPower(rand.New(rand.NewSource(1)), m.NumCores())
	traj := s.Transient(m.InitialTemps(), [][]float64{p, p})
	traj[1][0] = -1000
	if traj[0][0] == -1000 || traj[2][0] == -1000 {
		t.Fatal("Transient rows share storage")
	}
}

func TestStepToZeroAllocs(t *testing.T) {
	m := destModel(t, 8, 8)
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		t.Fatal(err)
	}
	temps := m.InitialTemps()
	r := rand.New(rand.NewSource(5))
	p, q := randPower(r, m.NumCores()), randPower(r, m.NumCores())
	// Repeated power: the remembered steady state is reused.
	if a := testing.AllocsPerRun(100, func() { s.StepTo(temps, temps, p) }); a != 0 {
		t.Errorf("StepTo on repeated power allocates %v per run, want 0", a)
	}
	// Changed power on every call: the steady state is solved each time.
	if a := testing.AllocsPerRun(100, func() {
		s.StepTo(temps, temps, q)
		s.StepTo(temps, temps, p)
	}); a != 0 {
		t.Errorf("StepTo on changed power allocates %v per two runs, want 0", a)
	}
	dst := make([]float64, m.NumNodes())
	if a := testing.AllocsPerRun(100, func() { s.SteadyStateInto(dst, p) }); a != 0 {
		t.Errorf("SteadyStateInto allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.ExtendPowerInto(dst, p) }); a != 0 {
		t.Errorf("ExtendPowerInto allocates %v per run, want 0", a)
	}
}

// TestStepToSteadyStateReuse drives one long-lived stepper through a power
// sequence built to trip the repeated-power shortcut — repeats of the same
// slice and of an equal copy, a change on one core, +0/−0 flips, a NaN, and
// a caller slice rewritten in place between calls — and checks every step,
// bit for bit, against a fresh stepper that has nothing to reuse.
func TestStepToSteadyStateReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edge   int
		solver string
	}{
		{"dense-8x8", 8, SolverDense},
		{"sparse-4x4", 4, SolverSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Solver = tc.solver
			m, err := New(floorplan.MustNew(tc.edge, tc.edge, 0.0009), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Solver() != tc.solver {
				t.Fatalf("resolved solver %q, want %q", m.Solver(), tc.solver)
			}
			const dt = 0.1e-3
			s, err := m.NewStepper(dt)
			if err != nil {
				t.Fatal(err)
			}
			p := randPower(rand.New(rand.NewSource(9)), m.NumCores())
			negZero := math.Copysign(0, -1)
			steps := []struct {
				name   string
				mutate func()
				copied bool // pass an equal copy instead of p itself
			}{
				{"first", func() {}, false},
				{"repeat", func() {}, false},
				{"repeat as a copy", func() {}, true},
				{"one core changed in place", func() { p[1] += 0.5 }, false},
				{"repeat after change", func() {}, false},
				{"+0 on a core", func() { p[2] = 0 }, false},
				{"-0 on that core", func() { p[2] = negZero }, false},
				{"repeat -0", func() {}, true},
				{"+0 again", func() { p[2] = 0 }, false},
				{"NaN on a core", func() { p[0] = math.NaN() }, false},
				{"repeat NaN", func() {}, true},
				{"finite again", func() { p[0] = 3 }, false},
				{"earlier value restored in place", func() { p[1] -= 0.5 }, false},
				{"repeat restored", func() {}, false},
			}
			temps := m.InitialTemps()
			got := make([]float64, m.NumNodes())
			want := make([]float64, m.NumNodes())
			for i, st := range steps {
				st.mutate()
				in := p
				if st.copied {
					in = append([]float64(nil), p...)
				}
				fresh, err := m.NewStepper(dt)
				if err != nil {
					t.Fatal(err)
				}
				// The sparse Krylov kernel refuses a NaN input with a panic;
				// the reused stepper must then panic exactly when the fresh
				// one does.
				wantPanic := panics(func() { fresh.StepTo(want, temps, in) })
				if gotPanic := panics(func() { s.StepTo(got, temps, in) }); gotPanic != wantPanic {
					t.Fatalf("step %d (%s): panicked %v, fresh stepper %v", i, st.name, gotPanic, wantPanic)
				}
				if wantPanic {
					continue
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("step %d (%s): node %d = %v, fresh stepper %v", i, st.name, j, got[j], want[j])
					}
				}
				// Advance only on finite states, so the NaN steps do not
				// make every later comparison NaN against NaN.
				finite := true
				for _, v := range got {
					finite = finite && !math.IsNaN(v)
				}
				if finite {
					copy(temps, got)
				}
			}
		})
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// --- hot-loop step baseline (make bench → BENCH_hotloop.json) ---------------

func benchStepper(b *testing.B) (*Stepper, []float64, []float64) {
	b.Helper()
	m := destModel(b, 8, 8)
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		b.Fatal(err)
	}
	return s, m.InitialTemps(), randPower(rand.New(rand.NewSource(5)), m.NumCores())
}

// benchStepNewPower times StepTo with the core power changing on every
// call (alternating p and an independent random q), so each step pays the
// steady-state solve.
func benchStepNewPower(b *testing.B, s *Stepper, temps, p []float64) {
	b.Helper()
	q := randPower(rand.New(rand.NewSource(6)), len(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			s.StepTo(temps, temps, p)
		} else {
			s.StepTo(temps, temps, q)
		}
	}
}

func BenchmarkHotloopStepAlloc(b *testing.B) {
	s, temps, p := benchStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temps = s.Step(temps, p)
	}
}

// BenchmarkHotloopStepTo steps a fixed power, so after the first call it
// times the repeated-power path: the propagator product alone, the
// remembered steady state reused (86 % of the steps of a Fig. 4 sweep).
// BenchmarkHotloopStepToNewPower times the full step.
func BenchmarkHotloopStepTo(b *testing.B) {
	s, temps, p := benchStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepTo(temps, temps, p)
	}
}

// BenchmarkHotloopStepToNewPower alternates two power vectors, so every
// step solves its steady state (the N×n core-column product) before the
// propagator product.
func BenchmarkHotloopStepToNewPower(b *testing.B) {
	s, temps, p := benchStepper(b)
	benchStepNewPower(b, s, temps, p)
}

// --- solver scaling baselines (docs/PERFORMANCE.md "Scaling to big chips") --

// benchSolverStepper builds a model at edge×edge with the given solver and
// returns its stepper plus a state to advance.
func benchSolverStepper(b *testing.B, edge int, solver string) (*Stepper, []float64, []float64) {
	b.Helper()
	fp, err := floorplan.New(edge, edge, 0.0009)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = solver
	m, err := New(fp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		b.Fatal(err)
	}
	return s, m.InitialTemps(), randPower(rand.New(rand.NewSource(5)), m.NumCores())
}

// BenchmarkHotloopStepSparse times the matrix-free Krylov transient step at
// the chip sizes of the scaling study (the 8×8 paper chip stays dense and is
// covered by BenchmarkHotloopStepTo). The power changes on every step, as
// in BenchmarkHotloopStepDense, so both backends are timed on the full step,
// steady-state solve included. A fixed power would time the repeated-power
// path instead, and on the sparse backend also let the state settle, which
// shrinks the Krylov subspace the kernel needs.
func BenchmarkHotloopStepSparse(b *testing.B) {
	for _, edge := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", edge, edge), func(b *testing.B) {
			s, temps, p := benchSolverStepper(b, edge, SolverSparse)
			benchStepNewPower(b, s, temps, p)
		})
	}
}

// BenchmarkHotloopStepDense is the dense per-step cost at the same sizes —
// the denominator of the sparse speedups pinned in CI — on new power every
// step. At 16×16 the real dense model is built and stepped. At 32×32 and
// 64×64 the dense setup is not feasible inside a benchmark run (O(N³)
// eigendecomposition; the N×N propagator alone is ≈0.5 GB at 64×64), so the
// per-step cost is measured on synthetic panels driving exactly the work a
// dense StepTo performs on new power: one N×n product with B⁻¹'s core
// columns (the steady-state solve) plus one N×N propagator product, with the
// O(N) vector ops in between. The panels are filled directly, so no
// row-major copy of either matrix is ever held. That is the floor of what
// the dense path would cost per step if one could afford to build it, so
// the reported speedup is an underestimate.
func BenchmarkHotloopStepDense(b *testing.B) {
	b.Run("16x16", func(b *testing.B) {
		s, temps, p := benchSolverStepper(b, 16, SolverDense)
		benchStepNewPower(b, s, temps, p)
	})
	for _, edge := range []int{32, 64} {
		b.Run(fmt.Sprintf("%dx%d", edge, edge), func(b *testing.B) {
			n := edge * edge
			N := 2*n + 1
			rng := rand.New(rand.NewSource(7))
			at := func(int, int) float64 { return rng.Float64() * 1e-3 }
			cores := matrix.NewPanels(N, n, at) // stands in for B⁻¹[:, :n]
			exp := matrix.NewPanels(N, N, at)   // and for e^{C·dt}
			temps := make([]float64, N)
			tss := make([]float64, N)
			diff := make([]float64, N)
			p := make([]float64, n)
			for i := range p {
				p[i] = rng.Float64() * 8
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cores.MulVecTo(tss, p)
				matrix.VecSubTo(diff, temps, tss)
				exp.MulVecTo(temps, diff)
				matrix.VecAddTo(temps, tss)
			}
		})
	}
}

// TestModelSteadyStateIntoMatchesExtendedSolve: Model.SteadyStateInto,
// which solves the sparse backend in place, equals bit for bit the solve on
// a separately extended power vector plus the ambient offset, on both
// backends, and allocates nothing.
func TestModelSteadyStateIntoMatchesExtendedSolve(t *testing.T) {
	fp, err := floorplan.New(8, 8, 0.0009)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{SolverDense, SolverSparse} {
		cfg := DefaultConfig()
		cfg.Solver = solver
		m, err := New(fp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, m.NumNodes())
		scratch := make([]float64, m.NumNodes()-1)
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			p := randPower(r, m.NumCores())
			want := m.solveB(m.ExtendPower(p))
			matrix.VecAddTo(want, m.steadyAmbient)
			m.SteadyStateInto(dst, p, scratch)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s trial %d node %d: SteadyStateInto %v, extended solve %v", solver, trial, i, dst[i], want[i])
				}
			}
		}
		p := randPower(r, m.NumCores())
		if a := testing.AllocsPerRun(20, func() { m.SteadyStateInto(dst, p, scratch) }); a != 0 {
			t.Errorf("%s: SteadyStateInto allocates %v per call, want 0", solver, a)
		}
	}
}
