package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// freshPropagator computes e^{C·dt} the way every stepper did before the
// model shared one per step size.
func freshPropagator(m *Model, dt float64) *matrix.Dense {
	return matrix.ExpmEigen(m.eig.V, matrix.VecScale(-1, m.eig.Lambda), m.eig.VInv, dt)
}

func mustStepper(t testing.TB, m *Model, dt float64) *Stepper {
	t.Helper()
	s, err := m.NewStepper(dt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStepperSharesPropagator(t *testing.T) {
	m := testModel(t, 4, 4)
	a, b := mustStepper(t, m, 0.1e-3), mustStepper(t, m, 0.1e-3)
	if a.exp != b.exp {
		t.Error("two steppers of one dt hold different propagators")
	}
	if c := mustStepper(t, m, 0.2e-3); c.exp == a.exp {
		t.Error("steppers of different dt share a propagator")
	}
	if len(m.props.entries) != 2 || m.props.doubles != 2*m.N*m.N {
		t.Errorf("retained %d propagators, %d doubles; want 2, %d", len(m.props.entries), m.props.doubles, 2*m.N*m.N)
	}
	// Steppers share the matrix, not their scratch.
	if &a.tss[0] == &b.tss[0] || &a.diff[0] == &b.diff[0] {
		t.Error("steppers of one dt share scratch")
	}
}

// TestStepperPropagatorConcurrentFirstTouch builds steppers of one dt from
// many goroutines on a fresh model: every one must get the same matrix, and
// -race must find nothing.
func TestStepperPropagatorConcurrentFirstTouch(t *testing.T) {
	m := testModel(t, 4, 4)
	const workers = 8
	got := make([]*matrix.Panels, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewStepper(0.1e-3)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = s.exp
			temps := m.InitialTemps()
			s.StepTo(temps, temps, make([]float64, m.NumCores()))
		}()
	}
	wg.Wait()
	for w, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("worker %d got propagator %p, worker 0 %p", w, p, got[0])
		}
	}
}

// stepBits runs 100 steps of random power from the ambient start and returns
// the final node temperatures.
func stepBits(s *Stepper, m *Model) []float64 {
	r := rand.New(rand.NewSource(3))
	temps := m.InitialTemps()
	p := make([]float64, m.NumCores())
	for range 100 {
		for i := range p {
			p[i] = 0.3 + 8*r.Float64()
		}
		s.StepTo(temps, temps, p)
	}
	return temps
}

func requireBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: node %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestSharedPropagatorBitEqualFresh(t *testing.T) {
	m := testModel(t, 4, 4)
	const dt = 0.1e-3
	mustStepper(t, m, dt) // builds the shared matrix
	shared := mustStepper(t, m, dt)
	fresh := mustStepper(t, m, dt)
	fresh.exp = freshPropagator(m, dt).Panels(m.N)
	if fresh.exp == shared.exp {
		t.Fatal("fresh propagator is the shared one")
	}
	requireBitEqual(t, "shared vs fresh propagator", stepBits(shared, m), stepBits(fresh, m))
}

// TestPropagatorCacheBound: past the bound a stepper gets a private matrix,
// correct and dropped with it, and the model retains nothing more.
func TestPropagatorCacheBound(t *testing.T) {
	m := testModel(t, 4, 4)
	size := m.N * m.N
	m.props.limit = 2 * size
	dts := []float64{0.1e-3, 0.2e-3, 0.3e-3, 0.4e-3}
	for _, dt := range dts {
		mustStepper(t, m, dt)
	}
	if len(m.props.entries) != 2 || m.props.doubles != 2*size {
		t.Fatalf("retained %d propagators, %d doubles; want 2, %d", len(m.props.entries), m.props.doubles, 2*size)
	}
	for _, dt := range dts[2:] {
		a, b := mustStepper(t, m, dt), mustStepper(t, m, dt)
		if a.exp == b.exp {
			t.Errorf("dt %g past the bound: propagator retained", dt)
		}
		fresh := mustStepper(t, m, dt)
		fresh.exp = freshPropagator(m, dt).Panels(m.N)
		requireBitEqual(t, "past the bound", stepBits(a, m), stepBits(fresh, m))
	}
	if len(m.props.entries) != 2 || m.props.doubles != 2*size {
		t.Errorf("after steppers past the bound: retained %d propagators, %d doubles", len(m.props.entries), m.props.doubles)
	}
	// The retained step sizes are still shared.
	if a, b := mustStepper(t, m, dts[0]), mustStepper(t, m, dts[0]); a.exp != b.exp {
		t.Error("a retained propagator is no longer shared")
	}
}

// TestStepToMatchesDenseReferenceStep holds the dense StepTo, which runs
// both of its products on panels, to a reference step that multiplies the
// row-major matrices with Dense.MulVecTo: the steady state as B⁻¹ times the
// extended power plus the ambient field, then e^{C·dt} times the deviation.
// Random powers, with some steps repeating the previous one, must give the
// same bits at every step on the 4×4 and 8×8 chips.
func TestStepToMatchesDenseReferenceStep(t *testing.T) {
	for _, edge := range []int{4, 8} {
		m := testModel(t, edge, edge)
		const dt = 0.1e-3
		s := mustStepper(t, m, dt)
		exp := freshPropagator(m, dt)
		r := rand.New(rand.NewSource(int64(edge)))
		got, want := m.InitialTemps(), m.InitialTemps()
		tss, diff := make([]float64, m.N), make([]float64, m.N)
		p := make([]float64, m.NumCores())
		for step := range 200 {
			if step%3 != 2 {
				for i := range p {
					p[i] = 0.3 + 8*r.Float64()
				}
			}
			s.StepTo(got, got, p)
			m.binv.MulVecTo(tss, m.ExtendPower(p))
			matrix.VecAddTo(tss, m.steadyAmbient)
			matrix.VecSubTo(diff, want, tss)
			exp.MulVecTo(want, diff)
			matrix.VecAddTo(want, tss)
			requireBitEqual(t, fmt.Sprintf("%dx%d step %d", edge, edge, step), got, want)
		}
	}
}
