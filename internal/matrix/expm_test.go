package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Expm computes the matrix exponential e^A with the scaling-and-squaring
// method and a degree-6 Padé approximant: the independent oracle the
// eigendecomposition-based ExpmEigen, which the thermal code uses, is
// checked against.
func Expm(a *Dense) *Dense {
	if a.rows != a.cols {
		panic("matrix: Expm of non-square matrix")
	}
	n := a.rows

	// Scale A by 2^-s so that ‖A/2^s‖∞ ≤ 0.5.
	norm := a.InfNorm()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	scaled := a.Scaled(math.Pow(2, -float64(s)))

	// Degree-6 diagonal Padé approximant:
	// e^X ≈ Q⁻¹ P with P = Σ c_k X^k (even+odd split for stability).
	c := padeCoefficients(6)
	x2 := scaled.Mul(scaled)

	// Even part E = c0 I + c2 X² + c4 X⁴ + c6 X⁶
	// Odd  part O = X (c1 I + c3 X² + c5 X⁴)
	x4 := x2.Mul(x2)
	x6 := x4.Mul(x2)

	even := Identity(n).Scaled(c[0]).
		Plus(x2.Scaled(c[2])).
		Plus(x4.Scaled(c[4])).
		Plus(x6.Scaled(c[6]))
	oddInner := Identity(n).Scaled(c[1]).
		Plus(x2.Scaled(c[3])).
		Plus(x4.Scaled(c[5]))
	odd := scaled.Mul(oddInner)

	p := even.Plus(odd)
	q := even.Minus(odd)

	f, err := FactorLU(q)
	if err != nil {
		panic("matrix: Expm Padé denominator singular: " + err.Error())
	}
	r, err := f.Solve(p)
	if err != nil {
		panic("matrix: Expm Padé solve failed: " + err.Error())
	}

	// Undo scaling: square s times.
	for i := 0; i < s; i++ {
		r = r.Mul(r)
	}
	return r
}

// padeCoefficients returns the coefficients of the degree-m diagonal Padé
// approximant numerator: c_k = m!(2m-k)! / ((2m)! k! (m-k)!).
func padeCoefficients(m int) []float64 {
	c := make([]float64, m+1)
	c[0] = 1
	for k := 1; k <= m; k++ {
		c[k] = c[k-1] * float64(m-k+1) / (float64(k) * float64(2*m-k+1))
	}
	return c
}

func TestExpmZeroIsIdentity(t *testing.T) {
	if got := Expm(New(3, 3)); !got.ApproxEqual(Identity(3), 1e-14) {
		t.Fatalf("e^0 =\n%v", got)
	}
}

func TestExpmDiagonal(t *testing.T) {
	d := Diagonal([]float64{1, -2, 0.5})
	got := Expm(d)
	want := Diagonal([]float64{math.E, math.Exp(-2), math.Exp(0.5)})
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatalf("e^D =\n%vwant\n%v", got, want)
	}
}

func TestExpmNilpotent(t *testing.T) {
	// For nilpotent N = [[0,1],[0,0]], e^N = I + N exactly.
	n := NewFromRows([][]float64{{0, 1}, {0, 0}})
	got := Expm(n)
	want := NewFromRows([][]float64{{1, 1}, {0, 1}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("e^N =\n%vwant\n%v", got, want)
	}
}

func TestExpmRotation(t *testing.T) {
	// e^{[[0,-θ],[θ,0]]} is a rotation by θ.
	theta := 0.7
	a := NewFromRows([][]float64{{0, -theta}, {theta, 0}})
	got := Expm(a)
	want := NewFromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatalf("rotation exp =\n%vwant\n%v", got, want)
	}
}

func TestExpmLargeNormUsesScaling(t *testing.T) {
	// ‖A‖ >> 0.5 exercises the scaling-and-squaring path.
	a := Diagonal([]float64{5, -5})
	got := Expm(a)
	want := Diagonal([]float64{math.Exp(5), math.Exp(-5)})
	if !got.ApproxEqual(want, 1e-8*math.Exp(5)) {
		t.Fatalf("e^A =\n%vwant\n%v", got, want)
	}
}

// Property: for symmetric A, Expm agrees with the eigendecomposition route.
func TestPropExpmMatchesEigenRoute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := randomSymmetric(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		viaEigen := ExpmEigen(e.Vectors, e.Values, e.Vectors.Transpose(), 1.0)
		viaPade := Expm(a)
		return viaEigen.ApproxEqual(viaPade, 1e-7*(1+viaPade.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: semigroup e^{A(s+t)} = e^{As}·e^{At} for commuting arguments.
func TestPropExpmSemigroup(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := randomSymmetric(r, n)
		s := 0.3 + r.Float64()
		u := 0.3 + r.Float64()
		lhs := Expm(a.Scaled(s + u))
		rhs := Expm(a.Scaled(s)).Mul(Expm(a.Scaled(u)))
		return lhs.ApproxEqual(rhs, 1e-6*(1+lhs.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: ExpmEigen with negative eigenvalues decays: ‖e^{Ct}‖ shrinks as t grows.
func TestPropExpmEigenDecay(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		aDiag := make([]float64, n)
		for i := range aDiag {
			aDiag[i] = 0.5 + r.Float64()
		}
		b := randomSPD(r, n)
		ge, err := SymDefEigen(aDiag, b)
		if err != nil {
			return false
		}
		negLambda := VecScale(-1, ge.Lambda) // C = -A⁻¹B eigenvalues
		e1 := ExpmEigen(ge.V, negLambda, ge.VInv, 0.5)
		e2 := ExpmEigen(ge.V, negLambda, ge.VInv, 5.0)
		return e2.FrobeniusNorm() < e1.FrobeniusNorm()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExpmNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Expm of non-square matrix did not panic")
		}
	}()
	Expm(New(2, 3))
}

func TestPadeCoefficientsDegree6(t *testing.T) {
	// Known closed form for m=6: c = [1, 1/2, 5/44, 1/66, 1/792, 1/15840, 1/665280].
	want := []float64{1, 0.5, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280}
	got := padeCoefficients(6)
	if !VecApproxEqual(got, want, 1e-15) {
		t.Fatalf("coefficients = %v, want %v", got, want)
	}
}

func BenchmarkExpmEigen129(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 129
	aDiag := make([]float64, n)
	for i := range aDiag {
		aDiag[i] = 0.5 + r.Float64()
	}
	spd := randomSPD(r, n)
	ge, err := SymDefEigen(aDiag, spd)
	if err != nil {
		b.Fatal(err)
	}
	neg := VecScale(-1, ge.Lambda)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpmEigen(ge.V, neg, ge.VInv, 0.0005)
	}
}
