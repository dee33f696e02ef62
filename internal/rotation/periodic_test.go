package rotation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// iterPair builds calculators over the same floorplan with the dense
// eigenbasis path and the sparse iterative path.
func iterPair(t testing.TB, w, h int, cfg thermal.Config) (*Calculator, *Calculator) {
	t.Helper()
	fp := floorplan.MustNew(w, h, 0.0009)
	cfgD := cfg
	cfgD.Solver = thermal.SolverDense
	cfgS := cfg
	cfgS.Solver = thermal.SolverSparse
	md, err := thermal.New(fp, cfgD)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := thermal.New(fp, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	return NewCalculator(md), NewCalculator(ms)
}

// TestIterativeMatchesEigenbasis pins the iterative evaluator against
// Algorithm 1's eigenbasis evaluation of the same plans: peak, peak
// location, start state and every epoch boundary must agree within the
// iterative tolerance.
func TestIterativeMatchesEigenbasis(t *testing.T) {
	cd, cs := iterPair(t, 4, 4, fastConfig())
	if cd.Iterative() || !cs.Iterative() {
		t.Fatal("calculator mode detection is wrong")
	}
	rng := rand.New(rand.NewSource(31))
	n := cd.n
	for trial := 0; trial < 5; trial++ {
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.Float64() * 8
		}
		cores := rng.Perm(n)[:3+rng.Intn(4)]
		plan := Rotate(2e-4, base, cores)

		want, err := cd.Evaluate(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Evaluate(plan)
		if err != nil {
			t.Fatal(err)
		}
		// The iterative tolerance bounds the start-state error; one period
		// walk from it cannot amplify (the step map is a contraction), and
		// the thermal backends themselves agree to 1e-9.
		const tol = 2 * DefaultIterTol
		if math.Abs(want.Peak-got.Peak) > tol {
			t.Fatalf("trial %d: peak %.9f (eigen) vs %.9f (iterative)", trial, want.Peak, got.Peak)
		}
		for i := range want.Start {
			if math.Abs(want.Start[i]-got.Start[i]) > tol {
				t.Fatalf("trial %d: start[%d] differs by %g", trial, i, want.Start[i]-got.Start[i])
			}
		}
		for e := range want.EpochEnd {
			for i := range want.EpochEnd[e] {
				if math.Abs(want.EpochEnd[e][i]-got.EpochEnd[e][i]) > tol {
					t.Fatalf("trial %d: epoch %d node %d differs by %g",
						trial, e, i, want.EpochEnd[e][i]-got.EpochEnd[e][i])
				}
			}
		}
	}
}

// TestIterativeFineMatchesEigenbasis checks the subsampled variant.
func TestIterativeFineMatchesEigenbasis(t *testing.T) {
	cd, cs := iterPair(t, 3, 3, fastConfig())
	base := []float64{8, 1, 6, 1, 7, 1, 5, 1, 4}
	plan := Rotate(3e-4, base, []int{0, 2, 4, 6})
	want, err := cd.EvaluateFine(plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.EvaluateFine(plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.Peak-got.Peak) > 2*DefaultIterTol {
		t.Fatalf("fine peak %.9f (eigen) vs %.9f (iterative)", want.Peak, got.Peak)
	}
}

// TestRingEvaluatorSparseFallback checks the ring evaluator built over a
// sparse model — response tables from the certified iterative solve —
// matches the dense ring evaluator.
func TestRingEvaluatorSparseFallback(t *testing.T) {
	cd, cs := iterPair(t, 4, 4, fastConfig())
	red := cd.NewRingEvaluator()
	res := cs.NewRingEvaluator()

	base := make([]float64, cd.n)
	for i := range base {
		base[i] = 1.5
	}
	ring := []int{0, 5, 10, 15}
	slots := []float64{9, 7, 2, 1}

	want, err := red.PeakRingRotation(2e-4, base, ring, slots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.PeakRingRotation(2e-4, base, ring, slots)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-got) > 2*DefaultIterTol {
		t.Fatalf("ring peak %.9f (eigen) vs %.9f (tables)", want, got)
	}

	// Argument validation must behave identically on the sparse backend.
	if _, err := res.PeakRingRotation(2e-4, base, []int{}, nil); err == nil {
		t.Fatal("empty ring accepted by the sparse evaluator")
	}
	if _, err := res.PeakRingRotation(2e-4, base, []int{99}, []float64{1}); err == nil {
		t.Fatal("out-of-range ring core accepted by the sparse evaluator")
	}
	// Slot powers whose table error budget Σ|wᵢ|·tableTol passes IterTol
	// are refused, not answered uncertified.
	if _, err := res.PeakRingRotation(2e-4, base, ring, []float64{1e6, 1e6, 0, 0}); err == nil || !strings.Contains(err.Error(), "certify") {
		t.Fatalf("ring power beyond the certified budget: err = %v", err)
	}
}

// TestIterativeAgainstBruteForce ties the iterative evaluator to the
// mode-agnostic brute-force reference on a sparse model.
func TestIterativeAgainstBruteForce(t *testing.T) {
	fp := floorplan.MustNew(3, 3, 0.0009)
	cfg := fastConfig()
	cfg.Solver = thermal.SolverSparse
	m, err := thermal.New(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCalculator(m)
	base := []float64{9, 1, 5, 1, 8, 1, 3, 1, 6}
	plan := Rotate(2e-4, base, []int{0, 4, 8})

	want, err := c.BruteForcePeak(plan, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PeakTemperature(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-got) > 1e-4 {
		t.Fatalf("iterative peak %.6f, brute force %.6f", got, want)
	}
}

// maxTestMatvecs pins the cost of one certified solve: preconditioned CG
// takes 9–14 period propagations on these models, unpreconditioned CG
// 35–70, and the fixed-point iteration it replaced walked thousands of
// periods. A silent slide back to either fails here.
const maxTestMatvecs = 32

// TestIterativeSlowSinkMatchesEigenbasis runs the differential test on the
// calibrated DefaultConfig, whose heatsink time constant (~1 s) is three
// orders of magnitude above a rotation period — the regime where the slowest
// mode of the period map is within 1e-3 of 1 and a solver that stops on
// progress rather than a certificate stops early. With IterTol 1e-10 every
// sparse query must match the dense closed form within the 1e-9 K backend
// contract of docs/THEORY.md §7.
func TestIterativeSlowSinkMatchesEigenbasis(t *testing.T) {
	sizes := []int{8, 16}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, w := range sizes {
		cd, cs := iterPair(t, w, w, thermal.DefaultConfig())
		cs.SetIterTol(1e-10)
		n := cd.n
		rng := rand.New(rand.NewSource(int64(w)))
		const tol = 1e-9
		for trial := 0; trial < 3; trial++ {
			base := make([]float64, n)
			for i := range base {
				base[i] = 0.3 + rng.Float64()*2
			}
			ring := rng.Perm(n)[:4+2*trial]
			slots := make([]float64, len(ring))
			for i := range slots {
				slots[i] = rng.Float64() * 9
			}
			for i, core := range ring {
				base[core] = slots[i]
			}
			plan := Rotate(0.5e-3, base, ring)

			stepper, err := cs.m.NewStepper(plan.Tau)
			if err != nil {
				t.Fatal(err)
			}
			start, matvecs, err := cs.periodicStart(plan, stepper)
			if err != nil {
				t.Fatalf("%dx%d trial %d: %v", w, w, trial, err)
			}
			if matvecs > maxTestMatvecs {
				t.Errorf("%dx%d trial %d: %d period propagations, want ≤ %d", w, w, trial, matvecs, maxTestMatvecs)
			}

			want, err := cd.Evaluate(plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cs.Evaluate(plan)
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for i := range want.Start {
				worst = math.Max(worst, math.Abs(want.Start[i]-start[i]))
				worst = math.Max(worst, math.Abs(want.Start[i]-got.Start[i]))
			}
			for e := range want.EpochEnd {
				for i := range want.EpochEnd[e] {
					worst = math.Max(worst, math.Abs(want.EpochEnd[e][i]-got.EpochEnd[e][i]))
				}
			}
			t.Logf("%dx%d trial %d: %d period propagations, max |sparse − dense| %.2g K", w, w, trial, matvecs, worst)
			if worst > tol || math.Abs(want.Peak-got.Peak) > tol || want.PeakCore != got.PeakCore || want.PeakEpoch != got.PeakEpoch {
				t.Fatalf("%dx%d trial %d: Evaluate differs from dense by %g K (peak %.12f vs %.12f)", w, w, trial, worst, got.Peak, want.Peak)
			}

			wantF, err := cd.EvaluateFine(plan, 3)
			if err != nil {
				t.Fatal(err)
			}
			gotF, err := cs.EvaluateFine(plan, 3)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(wantF.Peak - gotF.Peak); d > tol {
				t.Fatalf("%dx%d trial %d: EvaluateFine peak differs from dense by %g K", w, w, trial, d)
			}

			for i := range ring {
				base[ring[i]] = 0.3
			}
			wantR, err := cd.NewRingEvaluator().PeakRingRotation(plan.Tau, base, ring, slots)
			if err != nil {
				t.Fatal(err)
			}
			gotR, err := cs.NewRingEvaluator().PeakRingRotation(plan.Tau, base, ring, slots)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(wantR - gotR); d > tol {
				t.Fatalf("%dx%d trial %d: PeakRingRotation differs from dense by %g K", w, w, trial, d)
			}
		}
	}
}

// TestIterativeUncertifiableTolFailsFast: a tolerance no double-precision
// residual can certify must end in a descriptive error naming the achieved
// bound and the iteration cap — promptly, not after a silent crawl.
func TestIterativeUncertifiableTolFailsFast(t *testing.T) {
	_, cs := iterPair(t, 8, 8, thermal.DefaultConfig())
	cs.SetIterTol(1e-30)
	base := make([]float64, cs.n)
	for i := range base {
		base[i] = 1
	}
	plan := Rotate(0.5e-3, base, []int{27, 28, 36, 35})
	plan.Powers[0][27] = 9
	begin := time.Now()
	_, err := cs.Evaluate(plan)
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("IterTol 1e-30 certified; want an error")
	}
	for _, want := range []string{"not certified", fmt.Sprint(maxMatvecs), "bound", "1e-30"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if elapsed > 10*time.Second {
		t.Errorf("uncertifiable solve took %v before failing", elapsed)
	}
	t.Logf("failed after %v: %v", elapsed, err)
}
