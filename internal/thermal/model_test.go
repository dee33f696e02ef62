package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

func testModel(t testing.TB, w, h int) *Model {
	t.Helper()
	m, err := New(floorplan.MustNew(w, h, 0.0009), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	mutations := []func(*Config){
		func(c *Config) { c.SiCapacitance = 0 },
		func(c *Config) { c.SpCapacitance = -1 },
		func(c *Config) { c.SinkCapacitancePerCore = 0 },
		func(c *Config) { c.GVertical = 0 },
		func(c *Config) { c.GSpreaderSink = -0.1 },
		func(c *Config) { c.GSinkAmbientPerCore = 0 },
		func(c *Config) { c.GLateralSi = -0.01 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(fp, cfg); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestNodeCount(t *testing.T) {
	m := testModel(t, 4, 4)
	if m.NumCores() != 16 {
		t.Errorf("cores = %d", m.NumCores())
	}
	if m.NumNodes() != 33 {
		t.Errorf("nodes = %d, want 2*16+1", m.NumNodes())
	}
}

func TestBMatrixSymmetricPositiveDefinite(t *testing.T) {
	m := testModel(t, 4, 4)
	b := m.B()
	if !b.IsSymmetric(1e-12) {
		t.Fatal("B not symmetric")
	}
	e, err := matrix.SymEigen(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range e.Values {
		if l <= 0 {
			t.Fatalf("B eigenvalue %d = %v, want positive (SPD)", i, l)
		}
	}
}

func TestEigenvaluesOfCNegative(t *testing.T) {
	// Paper §IV: C = −A⁻¹B is negative definite, eigenvalues all negative.
	m := testModel(t, 4, 4)
	for i, l := range m.Eigen().Lambda {
		if l <= 0 {
			t.Fatalf("lambda[%d] of A⁻¹B = %v, want positive (so C's is negative)", i, l)
		}
	}
}

func TestZeroPowerSteadyStateIsAmbient(t *testing.T) {
	m := testModel(t, 4, 4)
	ss := m.SteadyState(make([]float64, 16))
	for i, temp := range ss {
		if math.Abs(temp-m.Ambient()) > 1e-8 {
			t.Fatalf("node %d idle steady = %v, want ambient %v", i, temp, m.Ambient())
		}
	}
}

func TestSteadyStateAboveAmbientWithPower(t *testing.T) {
	m := testModel(t, 4, 4)
	p := make([]float64, 16)
	p[5] = 5
	ss := m.SteadyState(p)
	for i, temp := range ss {
		if temp < m.Ambient()-1e-9 {
			t.Fatalf("node %d = %v below ambient with non-negative power", i, temp)
		}
	}
	if ss[5] <= m.Ambient()+1 {
		t.Fatalf("powered core at %v, expected clearly above ambient", ss[5])
	}
}

// argmax returns the index of the first largest element of a.
func argmax(a []float64) int {
	best := 0
	for i, v := range a {
		if v > a[best] {
			best = i
		}
	}
	return best
}

func TestHotspotAtPoweredCore(t *testing.T) {
	m := testModel(t, 4, 4)
	p := make([]float64, 16)
	p[9] = 8
	ss := m.SteadyState(p)
	if got := argmax(ss[:16]); got != 9 {
		t.Errorf("hottest core = %d, want 9", got)
	}
}

func TestSteadyStateSuperposition(t *testing.T) {
	// The model is linear: steady(p1+p2) - ambient = (steady(p1)-amb) + (steady(p2)-amb).
	m := testModel(t, 4, 4)
	p1 := make([]float64, 16)
	p2 := make([]float64, 16)
	p1[3], p2[12] = 4, 6
	s1 := m.SteadyState(p1)
	s2 := m.SteadyState(p2)
	s12 := m.SteadyState(matrix.VecAdd(p1, p2))
	for i := range s12 {
		want := s1[i] + s2[i] - m.Ambient()
		if math.Abs(s12[i]-want) > 1e-8 {
			t.Fatalf("superposition violated at node %d: %v vs %v", i, s12[i], want)
		}
	}
}

func TestCalibration16CoreMotivationalExample(t *testing.T) {
	// Paper Fig. 2(a): one ~9 W blackscholes thread drives its core to ≈80 °C
	// — clearly above the 70 °C threshold, but below silicon-killing levels.
	m := testModel(t, 4, 4)
	p := matrix.Constant(16, 0.3)
	p[5] = 9
	ss := m.SteadyState(p)
	if ss[5] < 72 || ss[5] > 90 {
		t.Errorf("single 9 W core steady = %.1f °C, want ≈80 (72–90)", ss[5])
	}
	// Rotating that thread over the 4 centre cores averages the power and
	// must be thermally safe (< 70 °C steady).
	avg := matrix.Constant(16, 0.3)
	for _, c := range []int{5, 6, 9, 10} {
		avg[c] = (9 + 3*0.3) / 4
	}
	ssRot := m.SteadyState(avg)
	if got := m.MaxCoreTemp(ssRot); got >= 68 {
		t.Errorf("rotated average steady = %.1f °C, want < 68 (headroom under 70)", got)
	}
}

func TestCalibration64CoreFullLoad(t *testing.T) {
	// The 64-core chip must be sustainable near ~2.5 W/core and unsustainable
	// at full-tilt compute power (≥5 W/core), so thermal management matters.
	m := testModel(t, 8, 8)
	safe := m.SteadyState(matrix.Constant(64, 2.3))
	if got := m.MaxCoreTemp(safe); got >= 70 {
		t.Errorf("2.3 W/core steady max = %.1f °C, want < 70", got)
	}
	unsafe := m.SteadyState(matrix.Constant(64, 5))
	if got := m.MaxCoreTemp(unsafe); got <= 75 {
		t.Errorf("5 W/core steady max = %.1f °C, want well above 70", got)
	}
}

func TestCenterHotterThanCornerUniformPower(t *testing.T) {
	// Thermal heterogeneity mirrors AMD: central cores run hotter under
	// uniform power (paper §III-A).
	m := testModel(t, 8, 8)
	fp := m.Floorplan()
	ss := m.SteadyState(matrix.Constant(64, 3))
	center := fp.ID(3, 3)
	corner := fp.ID(0, 0)
	if ss[center] <= ss[corner] {
		t.Errorf("center %.2f °C not hotter than corner %.2f °C", ss[center], ss[corner])
	}
}

func TestExtendPowerShape(t *testing.T) {
	m := testModel(t, 4, 4)
	p := m.ExtendPower(matrix.Constant(16, 2))
	if len(p) != 33 {
		t.Fatalf("extended length %d", len(p))
	}
	for i := 16; i < 33; i++ {
		if p[i] != 0 {
			t.Fatalf("non-core node %d has power %v", i, p[i])
		}
	}
}

func TestExtendPowerWrongLengthPanics(t *testing.T) {
	m := testModel(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong power length")
		}
	}()
	m.ExtendPower(make([]float64, 7))
}

func TestAccessorsReturnCopies(t *testing.T) {
	m := testModel(t, 2, 2)
	a := m.ADiag()
	a[0] = -999
	if m.ADiag()[0] == -999 {
		t.Error("ADiag returned a view")
	}
	g := m.G()
	g[len(g)-1] = -999
	if m.G()[len(g)-1] == -999 {
		t.Error("G returned a view")
	}
	b := m.B()
	b.Set(0, 0, -999)
	if m.B().At(0, 0) == -999 {
		t.Error("B returned a view")
	}
}

func TestInitialTempsAllAmbient(t *testing.T) {
	m := testModel(t, 4, 4)
	for i, v := range m.InitialTemps() {
		if v != m.Ambient() {
			t.Fatalf("initial temp of node %d = %v", i, v)
		}
	}
}

// Property: the steady state under random non-negative power is bounded below
// by ambient and the hottest node is a core (power enters at cores).
func TestPropSteadyStateBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 2 + r.Intn(4)
		fp := floorplan.MustNew(w, w, 0.0009)
		m, err := New(fp, DefaultConfig())
		if err != nil {
			return false
		}
		p := make([]float64, fp.NumCores())
		for i := range p {
			p[i] = r.Float64() * 8
		}
		ss := m.SteadyState(p)
		maxNode := argmax(ss)
		for _, temp := range ss {
			if temp < m.Ambient()-1e-9 {
				return false
			}
		}
		return maxNode < fp.NumCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: steady-state core temperature is monotone in that core's power.
func TestPropSteadyMonotoneInPower(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := New(floorplan.MustNew(4, 4, 0.0009), DefaultConfig())
		if err != nil {
			return false
		}
		core := r.Intn(16)
		base := make([]float64, 16)
		for i := range base {
			base[i] = r.Float64() * 3
		}
		more := append([]float64(nil), base...)
		more[core] += 1 + r.Float64()*5
		return m.SteadyState(more)[core] > m.SteadyState(base)[core]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
