package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewFromRows([][]float64{{4, 2}, {2, 3}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	want := NewFromRows([][]float64{{2, 0}, {1, math.Sqrt2}})
	if !l.ApproxEqual(want, 1e-12) {
		t.Fatalf("L =\n%vwant\n%v", l, want)
	}
}

func TestCholeskyRejects(t *testing.T) {
	if _, err := FactorCholesky(New(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := FactorCholesky(NewFromRows([][]float64{{1, 2}, {0, 1}})); err == nil {
		t.Error("asymmetric accepted")
	}
	// Symmetric but indefinite.
	if _, err := FactorCholesky(NewFromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Error("indefinite accepted")
	}
}

func TestIsPositiveDefinite(t *testing.T) {
	if !IsPositiveDefinite(Identity(3)) {
		t.Error("identity not PD")
	}
	if IsPositiveDefinite(NewFromRows([][]float64{{0, 0}, {0, 0}})) {
		t.Error("zero matrix PD")
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	spd := randomSPD(r, 8)
	b := make([]float64, 8)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	c, err := FactorCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	xc, err := c.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	xl, err := Solve(spd, b)
	if err != nil {
		t.Fatal(err)
	}
	if !VecApproxEqual(xc, xl, 1e-9) {
		t.Fatalf("Cholesky %v vs LU %v", xc, xl)
	}
}

func TestCholeskySolveVecValidation(t *testing.T) {
	c, err := FactorCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveVec([]float64{1}); err == nil {
		t.Error("short rhs accepted")
	}
	if _, err := c.Solve(New(2, 2)); err == nil {
		t.Error("short rhs matrix accepted")
	}
}

// Property: L·Lᵀ reconstructs A, and Inverse agrees with the LU inverse.
func TestPropCholeskyReconstructionAndInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSPD(r, n)
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		l := c.L()
		if !l.Mul(l.Transpose()).ApproxEqual(a, 1e-8*(1+a.MaxAbs())) {
			return false
		}
		invC, err := c.Inverse()
		if err != nil {
			return false
		}
		invLU, err := Inverse(a)
		if err != nil {
			return false
		}
		return invC.ApproxEqual(invLU, 1e-7*(1+invLU.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholeskyVsLU129(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	spd := randomSPD(r, 129)
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FactorCholesky(spd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FactorLU(spd); err != nil {
				b.Fatal(err)
			}
		}
	})
}
