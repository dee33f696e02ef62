package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
)

// goldenTol is the dense-vs-sparse equivalence bound of the numerics
// contract (docs/THEORY.md §"Sparse numerics"): every temperature the two
// backends produce must agree to 1e-9 K.
const goldenTol = 1e-9

// denseSparsePair builds the same model under both solver backends.
func denseSparsePair(t testing.TB, w, h int) (*Model, *Model) {
	t.Helper()
	fp := floorplan.MustNew(w, h, 0.0009)
	cfgD := DefaultConfig()
	cfgD.Solver = SolverDense
	cfgS := DefaultConfig()
	cfgS.Solver = SolverSparse
	md, err := New(fp, cfgD)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New(fp, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	return md, ms
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSparseGoldenSteadyState pins the sparse steady-state solve against the
// dense inverse across platform sizes from 3×3 to 8×8 under ≥100 random
// power vectors total.
func TestSparseGoldenSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, wh := range [][2]int{{3, 3}, {4, 4}, {5, 4}, {6, 6}, {7, 5}, {8, 8}} {
		md, ms := denseSparsePair(t, wh[0], wh[1])
		if d := maxAbsDiff(md.AmbientSteady(), ms.AmbientSteady()); d > goldenTol {
			t.Fatalf("%dx%d: ambient steady state differs by %g K", wh[0], wh[1], d)
		}
		for trial := 0; trial < 20; trial++ {
			watts := make([]float64, md.NumCores())
			for i := range watts {
				watts[i] = rng.Float64() * 10
			}
			got := ms.SteadyState(watts)
			want := md.SteadyState(watts)
			if d := maxAbsDiff(want, got); d > goldenTol {
				t.Fatalf("%dx%d trial %d: steady state differs by %g K", wh[0], wh[1], trial, d)
			}
		}
	}
}

// TestSparseGoldenTransient pins the Krylov stepper against the dense
// propagator along a full trajectory: both backends step the same power
// schedule from ambient, and every node of every step must agree to the
// golden bound.
func TestSparseGoldenTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, wh := range [][2]int{{3, 3}, {5, 4}, {8, 8}} {
		md, ms := denseSparsePair(t, wh[0], wh[1])
		const dt = 0.5e-3
		sd, err := md.NewStepper(dt)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := ms.NewStepper(dt)
		if err != nil {
			t.Fatal(err)
		}

		n := md.NumCores()
		td := md.InitialTemps()
		ts := ms.InitialTemps()
		watts := make([]float64, n)
		for step := 0; step < 120; step++ {
			if step%10 == 0 { // piecewise-constant schedule with jumps
				for i := range watts {
					watts[i] = rng.Float64() * 9
				}
			}
			sd.StepTo(td, td, watts)
			ss.StepTo(ts, ts, watts)
			if d := maxAbsDiff(td, ts); d > goldenTol {
				t.Fatalf("%dx%d step %d: trajectories differ by %g K", wh[0], wh[1], step, d)
			}
		}
	}
}

// TestSparseGoldenStacked runs the differential check on a 3D-stacked model,
// whose buried layers stress the arrowhead split differently (spreader block
// in the middle of the numbering).
func TestSparseGoldenStacked(t *testing.T) {
	fp := floorplan.MustNew(4, 4, 0.0009)
	cfgD := DefaultStackedConfig(3)
	cfgD.Solver = SolverDense
	cfgS := DefaultStackedConfig(3)
	cfgS.Solver = SolverSparse
	md, err := NewStacked(fp, cfgD)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewStacked(fp, cfgS)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	watts := make([]float64, md.NumCores())
	for i := range watts {
		watts[i] = rng.Float64() * 8
	}
	if d := maxAbsDiff(md.SteadyState(watts), ms.SteadyState(watts)); d > goldenTol {
		t.Fatalf("stacked steady state differs by %g K", d)
	}

	sd, _ := md.NewStepper(1e-3)
	ss, _ := ms.NewStepper(1e-3)
	td, ts := md.InitialTemps(), ms.InitialTemps()
	for step := 0; step < 60; step++ {
		sd.StepTo(td, td, watts)
		ss.StepTo(ts, ts, watts)
		if d := maxAbsDiff(td, ts); d > goldenTol {
			t.Fatalf("stacked step %d: trajectories differ by %g K", step, d)
		}
	}
}

// TestSparseGoldenCoreInfluence checks the lazily computed core block of
// B⁻¹ agrees between backends — the TSP budgeting substrate.
func TestSparseGoldenCoreInfluence(t *testing.T) {
	md, ms := denseSparsePair(t, 5, 5)
	infD, infS := md.CoreInfluence(), ms.CoreInfluence()
	for i := 0; i < md.NumCores(); i++ {
		for j := 0; j < md.NumCores(); j++ {
			if d := math.Abs(infD.At(i, j) - infS.At(i, j)); d > goldenTol {
				t.Fatalf("core influence (%d,%d) differs by %g", i, j, d)
			}
		}
	}
	if infS != ms.CoreInfluence() {
		t.Fatal("CoreInfluence must cache its result")
	}
}

// TestSolverSelection pins the auto threshold: 8×8 (129 nodes) stays dense,
// 16×16 (513 nodes) goes sparse, and explicit choices win over size.
func TestSolverSelection(t *testing.T) {
	small, err := New(floorplan.MustNew(8, 8, 0.0009), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if small.Solver() != SolverDense {
		t.Fatalf("8x8 auto solver = %q, want dense", small.Solver())
	}
	if small.BInv() == nil || small.Eigen() == nil || small.SparseB() != nil {
		t.Fatal("dense mode must expose BInv/Eigen and no CSR")
	}

	big, err := New(floorplan.MustNew(16, 16, 0.0009), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if big.Solver() != SolverSparse {
		t.Fatalf("16x16 auto solver = %q, want sparse", big.Solver())
	}
	if big.BInv() != nil || big.Eigen() != nil || big.SparseB() == nil {
		t.Fatal("sparse mode must return nil dense artifacts and a CSR")
	}

	cfg := DefaultConfig()
	cfg.Solver = SolverSparse
	forced, err := New(floorplan.MustNew(3, 3, 0.0009), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Solver() != SolverSparse {
		t.Fatalf("explicit sparse on 3x3 resolved to %q", forced.Solver())
	}

	cfg.Solver = "cholmod"
	if _, err := New(floorplan.MustNew(3, 3, 0.0009), cfg); err == nil {
		t.Fatal("unknown solver name must be rejected")
	}
}

// TestSparseStepToAllocationFree asserts the sparse hot loop keeps the
// repo-wide zero-allocation stepping contract.
func TestSparseStepToAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Solver = SolverSparse
	m, err := New(floorplan.MustNew(8, 8, 0.0009), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	temps := m.InitialTemps()
	watts := make([]float64, m.NumCores())
	for i := range watts {
		watts[i] = 5
	}
	if allocs := testing.AllocsPerRun(50, func() { s.StepTo(temps, temps, watts) }); allocs != 0 {
		t.Fatalf("sparse StepTo allocates %v times per call, want 0", allocs)
	}
}

// TestSparse64x64EndToEnd is the scale acceptance test: a 64×64 platform
// (N = 8193 — far beyond dense eigendecomposition reach) must construct and
// step through the sparse path with physically sane temperatures.
func TestSparse64x64EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("64x64 construction takes a few seconds")
	}
	m, err := New(floorplan.MustNew(64, 64, 0.0009), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Solver() != SolverSparse {
		t.Fatalf("64x64 resolved to %q, want sparse", m.Solver())
	}
	if bw := m.sp.bandwidth(); bw > 4*64 {
		t.Fatalf("head-block bandwidth %d, want O(grid width)", bw)
	}

	s, err := m.NewStepper(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	temps := m.InitialTemps()
	watts := make([]float64, m.NumCores())
	for i := range watts {
		watts[i] = 4
	}
	for step := 0; step < 20; step++ {
		s.StepTo(temps, temps, watts)
	}
	peak := m.MaxCoreTemp(temps)
	if math.IsNaN(peak) || peak <= m.Ambient() || peak > 400 {
		t.Fatalf("64x64 peak after 20 ms = %g °C, outside sane range", peak)
	}
	// Monotone heating from ambient under constant power.
	prev := peak
	s.StepTo(temps, temps, watts)
	if m.MaxCoreTemp(temps) < prev-goldenTol {
		t.Fatalf("heating trajectory not monotone: %g then %g", prev, m.MaxCoreTemp(temps))
	}
}

// TestDecayRateLowerBound is the property behind the sparse periodic
// certificate (docs/THEORY.md §7.4): μ_lb = 1/‖B⁻¹a‖_∞ never exceeds the
// slowest decay rate, the smallest generalized eigenvalue of A⁻¹B — on
// random RC parameters from 2×2 to 16×16 and on 3D stacks — and both
// backends compute the same bound.
func TestDecayRateLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// randomConfig scales every capacitance and conductance by 10^U(−1,1).
	randomConfig := func() Config {
		c := DefaultConfig()
		for _, f := range []*float64{
			&c.SiCapacitance, &c.SpCapacitance, &c.SinkCapacitancePerCore,
			&c.GLateralSi, &c.GVertical, &c.GLateralSp, &c.GSpreaderSink, &c.GSinkAmbientPerCore,
		} {
			*f *= math.Pow(10, 2*rng.Float64()-1)
		}
		return c
	}
	check := func(name string, build func(solver string) (*Model, error)) {
		t.Helper()
		md, err := build(SolverDense)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := build(SolverSparse)
		if err != nil {
			t.Fatal(err)
		}
		mu := md.DecayRateLowerBound()
		minLambda := math.Inf(1)
		for _, l := range md.Eigen().Lambda {
			minLambda = math.Min(minLambda, l)
		}
		if !(mu > 0) || mu > minLambda {
			t.Errorf("%s: μ_lb = %g, slowest mode decays at %g", name, mu, minLambda)
		}
		if muS := ms.DecayRateLowerBound(); math.Abs(muS-mu) > 1e-12*mu {
			t.Errorf("%s: sparse μ_lb %g, dense %g", name, muS, mu)
		}
		t.Logf("%s: μ_lb/μ_min = %.6f", name, mu/minLambda)
	}

	sizes := []int{2, 3, 4, 6, 8, 16}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, w := range sizes {
		fp := floorplan.MustNew(w, w, 0.0009)
		cfgs := []Config{DefaultConfig()}
		if w <= 8 {
			cfgs = append(cfgs, randomConfig(), randomConfig(), randomConfig())
		}
		for k, cfg := range cfgs {
			check(fmt.Sprintf("%dx%d config %d", w, w, k), func(solver string) (*Model, error) {
				cfg.Solver = solver
				return New(fp, cfg)
			})
		}
	}
	for _, layers := range []int{2, 3} {
		fp := floorplan.MustNew(4, 4, 0.0009)
		check(fmt.Sprintf("4x4x%d stack", layers), func(solver string) (*Model, error) {
			cfg := DefaultStackedConfig(layers)
			cfg.Solver = solver
			return NewStacked(fp, cfg)
		})
	}
}

// TestSparsePropagateTo pins the homogeneous propagator against the dense
// one for steps from a simulation slice up to seconds. Silicon capacitance
// cut 100× stiffens the model until the long steps need far more than the
// Krylov kernel's default subspace cap, so they exercise the sparse
// kernel's step splitting.
func TestSparsePropagateTo(t *testing.T) {
	fp := floorplan.MustNew(8, 8, 0.0009)
	cfg := DefaultConfig()
	cfg.SiCapacitance /= 100
	cfg.Solver = SolverDense
	md, err := New(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = SolverSparse
	ms, err := New(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	v := make([]float64, md.NumNodes())
	for i := range v {
		v[i] = 20*rng.Float64() - 10
	}
	wd := make([]float64, len(v))
	ws := make([]float64, len(v))
	for _, dt := range []float64{1e-4, 4e-3, 0.05, 2} {
		sd, err := md.NewStepper(dt)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := ms.NewStepper(dt)
		if err != nil {
			t.Fatal(err)
		}
		sd.PropagateTo(wd, v)
		ss.PropagateTo(ws, v)
		if d := maxAbsDiff(wd, ws); d > goldenTol {
			t.Errorf("dt %g s: propagators differ by %g K", dt, d)
		}
	}
}
