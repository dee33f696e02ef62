package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

func TestNewStackedValidation(t *testing.T) {
	fp := floorplan.MustNew(2, 2, 0.0009)
	cfg := DefaultStackedConfig(2)
	cfg.Layers = 0
	if _, err := NewStacked(fp, cfg); err == nil {
		t.Error("zero layers accepted")
	}
	cfg = DefaultStackedConfig(2)
	cfg.GInterLayer = 0
	if _, err := NewStacked(fp, cfg); err == nil {
		t.Error("zero inter-layer conductance accepted")
	}
	cfg = DefaultStackedConfig(2)
	cfg.SiCapacitance = 0
	if _, err := NewStacked(fp, cfg); err == nil {
		t.Error("invalid base config accepted")
	}
}

func TestStackedNodeCounts(t *testing.T) {
	fp := floorplan.MustNew(4, 4, 0.0009)
	m, err := NewStacked(fp, DefaultStackedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 32 {
		t.Errorf("cores = %d, want 32", m.NumCores())
	}
	if m.NumNodes() != 32+16+1 {
		t.Errorf("nodes = %d, want 49", m.NumNodes())
	}
}

func TestSingleLayerStackEqualsPlanarModel(t *testing.T) {
	// Layers=1 must reproduce the planar model exactly: same steady states.
	fp := floorplan.MustNew(4, 4, 0.0009)
	planar, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := NewStacked(fp, DefaultStackedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	p := matrix.Constant(16, 0.3)
	p[5] = 8
	a := planar.SteadyState(p)
	b := stacked.SteadyState(p)
	if !matrix.VecApproxEqual(a, b, 1e-9) {
		t.Fatal("1-layer stack differs from planar model")
	}
}

func TestBuriedLayerRunsHotter(t *testing.T) {
	// The 3D thermal problem: with identical power, the layer far from the
	// heatsink runs hotter than the layer adjacent to it.
	fp := floorplan.MustNew(4, 4, 0.0009)
	m, err := NewStacked(fp, DefaultStackedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	p := matrix.Constant(32, 2) // uniform power everywhere
	ss := m.SteadyState(p)
	for i := 0; i < 16; i++ {
		buried := ss[StackedCoreID(0, i, 16)]
		top := ss[StackedCoreID(1, i, 16)]
		if buried <= top {
			t.Fatalf("position %d: buried %.2f °C not hotter than top %.2f °C", i, buried, top)
		}
	}
}

func TestStackedEigenvaluesPositive(t *testing.T) {
	// The Algorithm 1 prerequisites hold for the 3D model too.
	fp := floorplan.MustNew(3, 3, 0.0009)
	m, err := NewStacked(fp, DefaultStackedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Eigen().Lambda {
		if l <= 0 {
			t.Fatalf("lambda[%d] = %v", i, l)
		}
	}
}

func TestStackedIdleIsAmbient(t *testing.T) {
	fp := floorplan.MustNew(3, 3, 0.0009)
	m, err := NewStacked(fp, DefaultStackedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ss := m.SteadyState(make([]float64, 18))
	for i, temp := range ss {
		if math.Abs(temp-m.Ambient()) > 1e-8 {
			t.Fatalf("node %d idle steady = %v", i, temp)
		}
	}
}

func TestStackedTransientConverges(t *testing.T) {
	fp := floorplan.MustNew(3, 3, 0.0009)
	m, err := NewStacked(fp, DefaultStackedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewStepper(10e-3)
	if err != nil {
		t.Fatal(err)
	}
	p := matrix.Constant(18, 1.5)
	ss := m.SteadyState(p)
	tv := m.InitialTemps()
	for i := 0; i < 3000; i++ {
		tv = s.Step(tv, p)
	}
	if !matrix.VecApproxEqual(tv, ss, 1e-3) {
		t.Fatal("stacked transient did not converge to steady state")
	}
}

func TestLayerHelpers(t *testing.T) {
	if StackedCoreID(1, 1, 16) != 17 {
		t.Error("StackedCoreID wrong")
	}
}
