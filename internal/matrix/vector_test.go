package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecAddSub(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := VecAdd(a, b); !VecApproxEqual(got, []float64{5, 7, 9}, 0) {
		t.Errorf("VecAdd = %v", got)
	}
	if got := VecSub(b, a); !VecApproxEqual(got, []float64{3, 3, 3}, 0) {
		t.Errorf("VecSub = %v", got)
	}
}

func TestVecAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched VecAdd did not panic")
		}
	}()
	VecAdd([]float64{1}, []float64{1, 2})
}

func TestVecScaleAndAddTo(t *testing.T) {
	a := []float64{1, -2}
	if got := VecScale(3, a); !VecApproxEqual(got, []float64{3, -6}, 0) {
		t.Errorf("VecScale = %v", got)
	}
	dst := []float64{10, 10}
	VecAddTo(dst, a)
	if !VecApproxEqual(dst, []float64{11, 8}, 0) {
		t.Errorf("VecAddTo = %v", dst)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, -5, 6}); got != 12 {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestVecMaxAndIndex(t *testing.T) {
	a := []float64{-5, 3, 2, 3}
	if got := VecMax(a); got != 3 {
		t.Errorf("VecMax = %v", got)
	}
}

func TestVecMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("VecMax(nil) did not panic")
		}
	}()
	VecMax(nil)
}

func TestNormsVec(t *testing.T) {
	a := []float64{3, -4}
	if got := VecNorm2(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("VecNorm2 = %v", got)
	}
	if got := VecNormInf(a); got != 4 {
		t.Errorf("VecNormInf = %v", got)
	}
}

func TestConstant(t *testing.T) {
	c := Constant(4, 2.5)
	if len(c) != 4 {
		t.Fatalf("len = %d", len(c))
	}
	for _, v := range c {
		if v != 2.5 {
			t.Fatalf("Constant = %v", c)
		}
	}
}

// Property: Cauchy-Schwarz |a·b| ≤ ‖a‖‖b‖.
func TestPropCauchySchwarz(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip degenerate draws
			}
		}
		return math.Abs(Dot(a, b)) <= VecNorm2(a)*VecNorm2(b)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality ‖a+b‖ ≤ ‖a‖+‖b‖.
func TestPropTriangleInequality(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return VecNorm2(VecAdd(a, b)) <= VecNorm2(a)+VecNorm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
