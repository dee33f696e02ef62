package rotation

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/thermal"
)

// tauLevels is HotPotato's τ ladder: τ_min … τ_max by doubling.
var tauLevels = []float64{0.125e-3, 0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3}

// slotPlan is the per-slot walk input: one watt in slot `slot` of the ring,
// on cores[(slot+e) mod δ] during epoch e, every other core unpowered.
func slotPlan(tau float64, n int, cores []int, slot int) Plan {
	powers := make([][]float64, len(cores))
	for e := range powers {
		powers[e] = make([]float64, n)
		powers[e][cores[(slot+e)%len(cores)]] = 1
	}
	return Plan{Tau: tau, Powers: powers}
}

// tableRings returns the platform's rings plus one sub-sequence that is no
// platform ring.
func tableRings(c *Calculator, extra []int) [][]int {
	rings := [][]int{extra}
	for _, r := range c.m.Floorplan().Rings() {
		rings = append(rings, r.Cores)
	}
	return rings
}

// maxTableDiff returns the largest |H_slot(e) − walk(e)| over epochs and
// cores, where walk is ref's per-slot evaluation of the same input.
func maxTableDiff(t *testing.T, tab *ringTable, ref *Calculator, slot int) float64 {
	t.Helper()
	res, err := ref.Evaluate(slotPlan(tab.tau, ref.n, tab.cores, slot))
	if err != nil {
		t.Fatal(err)
	}
	amb := ref.m.AmbientSteady()
	size := len(tab.cores)
	var worst float64
	for e := 0; e < size; e++ {
		row := tab.row((e + slot) % size)
		for i := range row {
			worst = math.Max(worst, math.Abs(row[i]-(res.EpochEnd[e][i]-amb[i])))
		}
	}
	return worst
}

// randomRingCase draws a background and slot powers for a ring.
func randomRingCase(r *rand.Rand, n, size int) (base, slots []float64) {
	base = make([]float64, n)
	for i := range base {
		base[i] = 0.3 + r.Float64()*2
	}
	slots = make([]float64, size)
	for i := range slots {
		slots[i] = 0.3 + r.Float64()*8
	}
	return base, slots
}

// TestDenseTablesMatchEvaluate: on the eigenbasis backend every table —
// every platform ring, a non-platform sub-sequence, every τ level — matches
// Calculator.Evaluate's walk of the slot-0 input within 1e-9 K per watt,
// and PeakRingRotation matches Evaluate on a random full schedule.
func TestDenseTablesMatchEvaluate(t *testing.T) {
	for _, tc := range []struct {
		w     int
		extra []int
	}{{4, []int{5, 6, 10}}, {8, []int{27, 28, 36, 35}}} {
		c := newCalc(t, tc.w, tc.w, thermal.DefaultConfig())
		ev := c.NewRingEvaluator()
		r := rand.New(rand.NewSource(int64(tc.w)))
		for _, ring := range tableRings(c, tc.extra) {
			for _, tau := range tauLevels {
				tab, _, err := c.ringTable(tau, ring)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxTableDiff(t, tab, c, 0); d > 1e-9 {
					t.Errorf("%dx%d ring %v τ %g: table differs from Evaluate by %g K/W", tc.w, tc.w, ring, tau, d)
				}
				base, slots := randomRingCase(r, c.n, len(ring))
				got, err := ev.PeakRingRotation(tau, base, ring, slots)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.PeakTemperature(buildEquivalentPlan(tau, base, ring, slots))
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - want); d > 1e-9 {
					t.Errorf("%dx%d ring %v τ %g: PeakRingRotation %.12f vs Evaluate %.12f", tc.w, tc.w, ring, tau, got, want)
				}
			}
		}
	}
}

// TestSparseTablesMatchEvaluate: on the sparse backend — 4×4 forced sparse
// and 16×16, where auto selection goes sparse — tables and ring evaluations
// stay within IterTol of Evaluate run at a 100× tighter tolerance. -short
// checks three 16×16 rings at τ_min and τ_max.
func TestSparseTablesMatchEvaluate(t *testing.T) {
	_, forced := iterPair(t, 4, 4, thermal.DefaultConfig())
	cases := []struct {
		name  string
		c     *Calculator
		rings [][]int
		taus  []float64
	}{{"4x4", forced, tableRings(forced, []int{5, 6, 10}), tauLevels}}
	big := newCalc(t, 16, 16, thermal.DefaultConfig())
	if !big.Iterative() {
		t.Fatal("a 16x16 chip must resolve to the sparse backend")
	}
	bigRings := tableRings(big, []int{119, 120, 136, 135, 134, 118})
	bigTaus := tauLevels
	if testing.Short() {
		bigRings = [][]int{bigRings[0], bigRings[14], bigRings[len(bigRings)-1]}
		bigTaus = []float64{tauLevels[0], tauLevels[len(tauLevels)-1]}
	}
	cases = append(cases, struct {
		name  string
		c     *Calculator
		rings [][]int
		taus  []float64
	}{"16x16", big, bigRings, bigTaus})

	for _, tc := range cases {
		ref := NewCalculator(tc.c.m)
		ref.SetIterTol(DefaultIterTol / 100)
		ev := tc.c.NewRingEvaluator()
		r := rand.New(rand.NewSource(int64(tc.c.n)))
		for _, ring := range tc.rings {
			for _, tau := range tc.taus {
				tab, _, err := tc.c.ringTable(tau, ring)
				if err != nil {
					t.Fatalf("%s ring %v τ %g: %v", tc.name, ring, tau, err)
				}
				if d := maxTableDiff(t, tab, ref, 0); d > DefaultIterTol {
					t.Errorf("%s ring %v τ %g: table differs from Evaluate by %g K/W", tc.name, ring, tau, d)
				}
				base, slots := randomRingCase(r, tc.c.n, len(ring))
				got, err := ev.PeakRingRotation(tau, base, ring, slots)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.PeakTemperature(buildEquivalentPlan(tau, base, ring, slots))
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got - want); d > DefaultIterTol {
					t.Errorf("%s ring %v τ %g: PeakRingRotation %.12f vs Evaluate %.12f", tc.name, ring, tau, got, want)
				}
			}
		}
	}
}

// TestSlotShiftIdentity checks H_i(e) = H_0(e+i) directly: the slot-0 table,
// shifted by i epochs, matches an explicit walk of slot i's input on both
// backends.
func TestSlotShiftIdentity(t *testing.T) {
	cd, cs := iterPair(t, 4, 4, thermal.DefaultConfig())
	ring := []int{5, 6, 10, 9, 13}
	csRef := NewCalculator(cs.m)
	csRef.SetIterTol(DefaultIterTol / 100)
	for _, tc := range []struct {
		name   string
		c, ref *Calculator
		tol    float64
	}{{"dense", cd, cd, 1e-12}, {"sparse", cs, csRef, 1e-9}} {
		tab, _, err := tc.c.ringTable(0.5e-3, ring)
		if err != nil {
			t.Fatal(err)
		}
		for slot := range ring {
			if d := maxTableDiff(t, tab, tc.ref, slot); d > tc.tol {
				t.Errorf("%s slot %d: shifted slot-0 table differs from the slot walk by %g K/W", tc.name, slot, d)
			}
		}
	}
}

// TestRingTablesConcurrentFirstTouch: eight goroutines with their own
// evaluators over one Calculator touch the same (ring, τ) keys first, at
// the same time; every result must equal a serial run's bit for bit. Run
// under -race (make race) it also checks the once-per-key guard.
func TestRingTablesConcurrentFirstTouch(t *testing.T) {
	_, sparse := iterPair(t, 4, 4, thermal.DefaultConfig())
	for _, c := range []*Calculator{newCalc(t, 8, 8, thermal.DefaultConfig()), sparse} {
		type ringCase struct {
			tau         float64
			ring        []int
			base, slots []float64
		}
		r := rand.New(rand.NewSource(5))
		var cases []ringCase
		for _, ring := range tableRings(c, []int{1, 2, 6})[:3] {
			for _, tau := range tauLevels[:2] {
				base, slots := randomRingCase(r, c.n, len(ring))
				cases = append(cases, ringCase{tau, ring, base, slots})
			}
		}
		run := func(ev *RingEvaluator) ([]float64, error) {
			out := make([]float64, len(cases))
			for i, rc := range cases {
				var err error
				if out[i], err = ev.PeakRingRotation(rc.tau, rc.base, rc.ring, rc.slots); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		want, err := run(NewCalculator(c.m).NewRingEvaluator())
		if err != nil {
			t.Fatal(err)
		}

		const workers = 8
		got := make([][]float64, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ev := c.NewRingEvaluator()
				<-start
				got[g], errs[g] = run(ev)
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if !slices.Equal(got[g], want) {
				t.Errorf("goroutine %d: %v, serial %v", g, got[g], want)
			}
		}
		if len(c.tables.entries) != len(cases) {
			t.Errorf("%d tables cached for %d keys", len(c.tables.entries), len(cases))
		}
	}
}

// Tables past the calculator's storage bound are built for the caller and
// dropped: neither the calculator nor the evaluator keeps them, and the
// answers equal an unbounded calculator's.
func TestRingTablesBeyondBoundNotRetained(t *testing.T) {
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	ring := []int{5, 6, 10, 9}
	c.tables.limit = 2 * len(ring) * c.n
	ev := c.NewRingEvaluator()
	ref := NewCalculator(c.m).NewRingEvaluator()
	base, slots := randomRingCase(rand.New(rand.NewSource(3)), c.n, len(ring))
	for round := 0; round < 2; round++ {
		for _, tau := range tauLevels {
			got, err := ev.PeakRingRotation(tau, base, ring, slots)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.PeakRingRotation(tau, base, ring, slots)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("τ %g: %v past the bound, %v unbounded", tau, got, want)
			}
		}
	}
	memoized := 0
	for _, ts := range ev.memo {
		memoized += len(ts)
	}
	if len(c.tables.entries) != 2 || c.tables.doubles != c.tables.limit || memoized != 2 {
		t.Errorf("%d tables retained (%d doubles, bound %d), %d memoized; want 2 at the bound",
			len(c.tables.entries), c.tables.doubles, c.tables.limit, memoized)
	}
}
