package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The LU factorization is the test oracle behind Expm (Padé) and the
// Cholesky inverse; production code factors B with Cholesky only.

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// LU holds an LU factorization with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U is upper triangular, stored compactly.
type LU struct {
	n     int
	lu    *Dense
	pivot []int
	sign  float64
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular when a pivot is exactly zero.
func FactorLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	f := &LU{n: n, lu: a.Clone(), pivot: make([]int, n), sign: 1}
	lu := f.lu.data
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		max := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				max = v
				p = i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.pivot[k], f.pivot[p] = f.pivot[p], f.pivot[k]
			f.sign = -f.sign
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := lu[i*n+k] / pivVal
			lu[i*n+k] = lik
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= lik * lu[k*n+j]
			}
		}
	}
	return f, nil
}

// SolveVec solves A*x = b for x using the factorization.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("matrix: rhs length %d, want %d", len(b), f.n)
	}
	n := f.n
	lu := f.lu.data
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += lu[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += lu[i*n+j] * x[j]
		}
		d := lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// Solve solves A*X = B column by column.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	if b.rows != f.n {
		return nil, fmt.Errorf("matrix: rhs has %d rows, want %d", b.rows, f.n)
	}
	x := New(f.n, b.cols)
	col := make([]float64, f.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		sol, err := f.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < f.n; i++ {
			x.data[i*x.cols+j] = sol[i]
		}
	}
	return x, nil
}

// Determinant returns det(A) from the factorization.
func (f *LU) Determinant() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu.data[i*f.n+i]
	}
	return d
}

// Inverse returns A⁻¹ computed from an LU factorization of a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows))
}

// Solve solves a*x = b for a single right-hand side.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

func TestSolveKnownSystem(t *testing.T) {
	a := NewFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	if !VecApproxEqual(x, want, 1e-10) {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square LU")
	}
}

func TestInverseIdentity(t *testing.T) {
	inv, err := Inverse(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !inv.ApproxEqual(Identity(4), 1e-12) {
		t.Fatalf("Identity⁻¹ != Identity:\n%v", inv)
	}
}

func TestInverseKnown(t *testing.T) {
	a := NewFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewFromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.ApproxEqual(want, 1e-12) {
		t.Fatalf("inverse =\n%vwant\n%v", inv, want)
	}
}

func TestDeterminant(t *testing.T) {
	cases := []struct {
		m    *Dense
		want float64
	}{
		{Identity(3), 1},
		{NewFromRows([][]float64{{2, 0}, {0, 3}}), 6},
		{NewFromRows([][]float64{{0, 1}, {1, 0}}), -1}, // forces a pivot swap
		{NewFromRows([][]float64{{1, 2}, {3, 4}}), -2},
	}
	for i, c := range cases {
		f, err := FactorLU(c.m)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := f.Determinant(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: det = %v, want %v", i, got, c.want)
		}
	}
}

func TestSolveVecWrongLength(t *testing.T) {
	f, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveVec([]float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSolveMatrixWrongRows(t *testing.T) {
	f, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(New(2, 2)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// Property: A * A⁻¹ = I for random well-conditioned matrices.
func TestPropInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomDense(r, n, n)
		// Make diagonally dominant so the matrix is well conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).ApproxEqual(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Solve(a, a*x) recovers x.
func TestPropSolveRecoversX(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randomDense(r, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return VecApproxEqual(got, x, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: det(A·B) = det(A)·det(B).
func TestPropDeterminantMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		fa, errA := FactorLU(a)
		fb, errB := FactorLU(b)
		fab, errAB := FactorLU(a.Mul(b))
		if errA != nil || errB != nil || errAB != nil {
			return true // singular draw; property vacuous
		}
		lhs := fab.Determinant()
		rhs := fa.Determinant() * fb.Determinant()
		scale := math.Max(1, math.Abs(lhs))
		return math.Abs(lhs-rhs) < 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInverse129(b *testing.B) {
	// 129 nodes = 64 cores × 2 layers + 1 sink: the size used by the
	// 64-core thermal model.
	r := rand.New(rand.NewSource(7))
	n := 129
	a := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Inverse(a); err != nil {
			b.Fatal(err)
		}
	}
}
