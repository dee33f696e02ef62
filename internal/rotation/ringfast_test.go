package rotation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/matrix"
	"repro/internal/thermal"
)

// buildEquivalentPlan expands a (base, ring, slotWatts) ring rotation into
// the explicit Plan the general Evaluate path consumes.
func buildEquivalentPlan(tau float64, base []float64, ringCores []int, slotWatts []float64) Plan {
	size := len(ringCores)
	powers := make([][]float64, size)
	for e := 0; e < size; e++ {
		p := append([]float64(nil), base...)
		for i, w := range slotWatts {
			p[ringCores[(i+e)%size]] = w
		}
		powers[e] = p
	}
	return Plan{Tau: tau, Powers: powers}
}

func TestRingFastMatchesGeneralEvaluate(t *testing.T) {
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()

	base := matrix.Constant(16, 0.5)
	ring := []int{5, 6, 10, 9}
	slotWatts := []float64{9, 0.3, 7, 0.3}

	fast, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	general, err := c.PeakTemperature(buildEquivalentPlan(0.5e-3, base, ring, slotWatts))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-general) > 1e-6 {
		t.Fatalf("fast path %.6f vs general %.6f", fast, general)
	}
}

func TestRingFastValidation(t *testing.T) {
	c := newCalc(t, 2, 2, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(4, 0.3)
	if _, err := ev.PeakRingRotation(0, base, []int{0, 1}, []float64{1, 1}); err == nil {
		t.Error("zero τ accepted")
	}
	if _, err := ev.PeakRingRotation(math.NaN(), base, []int{0, 1}, []float64{1, 1}); err == nil {
		t.Error("NaN τ accepted")
	}
	if _, err := ev.PeakRingRotation(1e-3, base[:2], []int{0, 1}, []float64{1, 1}); err == nil {
		t.Error("short base accepted")
	}
	if _, err := ev.PeakRingRotation(1e-3, base, nil, nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := ev.PeakRingRotation(1e-3, base, []int{0, 1}, []float64{1}); err == nil {
		t.Error("slot/ring length mismatch accepted")
	}
	if _, err := ev.PeakRingRotation(1e-3, base, []int{0, 9}, []float64{1, 1}); err == nil {
		t.Error("out-of-range ring core accepted")
	}
}

// Property: the fast path agrees with the general path on random rings,
// powers, and epoch lengths.
func TestPropRingFastEquivalence(t *testing.T) {
	m, err := thermal.New(floorplan.MustNew(3, 3, 0.0009), thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCalculator(m)
	ev := c.NewRingEvaluator()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := make([]float64, 9)
		for i := range base {
			base[i] = r.Float64() * 4
		}
		// Random ring: a permutation prefix of cores.
		perm := r.Perm(9)
		size := 2 + r.Intn(6)
		ring := perm[:size]
		slotWatts := make([]float64, size)
		for i := range slotWatts {
			slotWatts[i] = r.Float64() * 9
		}
		tau := (0.2 + r.Float64()*2) * 1e-3
		fast, err := ev.PeakRingRotation(tau, base, ring, slotWatts)
		if err != nil {
			return false
		}
		general, err := c.PeakTemperature(buildEquivalentPlan(tau, base, ring, slotWatts))
		if err != nil {
			return false
		}
		return math.Abs(fast-general) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRingFastUniformBackgroundIsSteadyState(t *testing.T) {
	// A ring whose slots all equal the base power degenerates to a constant
	// field: the peak is the steady-state maximum.
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(16, 2.5)
	ring := []int{5, 6, 10, 9}
	fast, err := ev.PeakRingRotation(1e-3, base, ring, []float64{2.5, 2.5, 2.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	ss := c.Model().SteadyState(base)
	want := c.Model().MaxCoreTemp(ss)
	if math.Abs(fast-want) > 1e-6 {
		t.Fatalf("uniform rotation peak %.6f, steady max %.6f", fast, want)
	}
}

// TestPeakRingRotationPairedWalkBitIdentical pins the epoch walk
// (matrix.RotatedSumMax: two non-zero slots per pass in Go, one lane per
// core in AVX) to the walk with one pass per slot over the same table and
// background: the peak and every epoch's hottest core must match bit for
// bit for rings of 1–8 slots under every zero/non-zero slot pattern, on both
// backends.
func TestPeakRingRotationPairedWalkBitIdentical(t *testing.T) {
	const tau = 0.5e-3
	for _, tc := range []struct {
		c    *Calculator
		ring []int
	}{
		{newCalc(t, 8, 8, thermal.DefaultConfig()), []int{27, 28, 36, 35, 34, 26, 18, 19}},
		{newCalc(t, 16, 16, thermal.DefaultConfig()), []int{119, 120, 136, 135, 134, 118, 102, 103}},
	} {
		c := tc.c
		ev := c.NewRingEvaluator()
		s := c.m.CoreInfluence()
		r := rand.New(rand.NewSource(int64(c.n)))
		for size := 1; size <= len(tc.ring); size++ {
			ring := tc.ring[:size]
			for mask := 0; mask < 1<<size; mask++ {
				base := make([]float64, c.n)
				for i := range base {
					base[i] = 0.2 + r.Float64()
				}
				slotWatts := make([]float64, size)
				for i := range slotWatts {
					switch {
					case mask&(1<<i) != 0:
						slotWatts[i] = 0.3 + 9*r.Float64()
					case i%2 == 1:
						slotWatts[i] = math.Copysign(0, -1) // skipped like +0
					}
				}
				got, err := ev.PeakRingRotation(tau, base, ring, slotWatts)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := ev.table(tau, ring)
				if err != nil {
					t.Fatal(err)
				}
				bg := s.MulVec(base)
				for _, cr := range ring {
					for i := range bg {
						bg[i] -= base[cr] * s.At(cr, i)
					}
				}
				want := math.Inf(-1)
				temp := make([]float64, c.n)
				for ep := 0; ep < size; ep++ {
					copy(temp, bg)
					for i, w := range slotWatts {
						if w == 0 {
							continue
						}
						row := tab.row((ep + i) % size)
						for k := range temp {
							temp[k] += float64(w * row[k])
						}
					}
					m := matrix.VecMax(temp)
					if got := matrix.RotatedSumMax(ev.coreT, bg, tab.h, slotWatts, ep); math.Float64bits(got) != math.Float64bits(m) {
						t.Fatalf("%s, ring of %d, slots %v: epoch %d peaks at %v, unpaired walk %v", c.m.Solver(), size, slotWatts, ep, got, m)
					}
					if m > want {
						want = m
					}
				}
				want += c.m.Ambient()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, ring of %d, slots %v: peak %v, unpaired walk %v", c.m.Solver(), size, slotWatts, got, want)
				}
			}
		}
	}
}

// TestPeakRingRotationUntilSameSide holds the threshold walk to the full
// one on a dense 8×8 and a sparse 4×4 calculator: over random backgrounds,
// rings and slot powers (idle slots among them), and limits drawn around the
// peak, at it, one ulp either side of it, and at every epoch's running peak
// (where the walk stops exactly on a reachable value), PeakRingRotationUntil
// must land on the same side of the limit as PeakRingRotation, and return
// its exact bits whenever that is under the limit.
func TestPeakRingRotationUntilSameSide(t *testing.T) {
	const tau = 0.5e-3
	_, sparse := iterPair(t, 4, 4, thermal.DefaultConfig())
	for _, c := range []*Calculator{newCalc(t, 8, 8, thermal.DefaultConfig()), sparse} {
		ev, full := c.NewRingEvaluator(), c.NewRingEvaluator()
		r := rand.New(rand.NewSource(int64(c.n) + 25))
		amb := c.m.Ambient()
		for trial := 0; trial < 60; trial++ {
			base := make([]float64, c.n)
			for i := range base {
				base[i] = 0.3 + 2*r.Float64()
			}
			ring := r.Perm(c.n)[:1+r.Intn(8)]
			slotWatts := make([]float64, len(ring))
			for i := range slotWatts {
				if r.Intn(4) > 0 {
					slotWatts[i] = 0.3 + 9*r.Float64()
				}
			}
			peak, err := full.PeakRingRotation(tau, base, ring, slotWatts)
			if err != nil {
				t.Fatal(err)
			}
			limits := []float64{peak, math.Nextafter(peak, math.Inf(1)), math.Nextafter(peak, math.Inf(-1)),
				amb, math.Inf(1), math.Inf(-1), amb + (peak-amb)*r.Float64(), peak + r.Float64()}
			tab, err := full.table(tau, ring)
			if err != nil {
				t.Fatal(err)
			}
			running := math.Inf(-1)
			for ep := range ring {
				if m := matrix.RotatedSumMax(full.coreT, full.bg, tab.h, slotWatts, ep); m > running {
					running = m
				}
				limits = append(limits, running+amb)
			}
			for _, limit := range limits {
				got, err := ev.PeakRingRotationUntil(tau, base, ring, slotWatts, limit)
				if err != nil {
					t.Fatal(err)
				}
				if (got >= limit) != (peak >= limit) {
					t.Fatalf("%s, ring %v, slots %v, limit %v: until %v, full peak %v — different sides", c.m.Solver(), ring, slotWatts, limit, got, peak)
				}
				if peak < limit && math.Float64bits(got) != math.Float64bits(peak) {
					t.Fatalf("%s, ring %v, slots %v, limit %v: until %v, full peak %v", c.m.Solver(), ring, slotWatts, limit, got, peak)
				}
			}
		}
	}
}

func BenchmarkRingFast64Core(b *testing.B) {
	m, err := thermal.New(floorplan.MustNew(8, 8, 0.0009), thermal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c := NewCalculator(m)
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 2)
	rings := m.Floorplan().Rings()
	ring := rings[len(rings)/2].Cores
	slotWatts := make([]float64, len(ring))
	for i := range slotWatts {
		slotWatts[i] = float64(i%3) * 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			b.Fatal(err)
		}
	}
}
