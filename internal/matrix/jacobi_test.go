package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	e, err := SymEigen(Diagonal([]float64{3, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3} // sorted ascending
	if !VecApproxEqual(e.Values, want, 1e-12) {
		t.Fatalf("values = %v, want %v", e.Values, want)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	e, err := SymEigen(NewFromRows([][]float64{{2, 1}, {1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if !VecApproxEqual(e.Values, []float64{1, 3}, 1e-12) {
		t.Fatalf("values = %v, want [1 3]", e.Values)
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	if _, err := SymEigen(NewFromRows([][]float64{{1, 2}, {0, 1}})); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

// SymEigenColumnOracle is SymEigen as it was before rotations moved onto
// rows: each rotation reads and writes columns p and q of W with a stride
// of n, reading W[i][p] and W[i][q] on both sides of the diagonal and
// W[p][q] from the upper triangle. SymEigen must match it bit for bit
// (TestSymEigenMatchesColumnOracle, an external test of this directory).
func SymEigenColumnOracle(a *Dense) (*Eigen, error) {
	n := a.rows
	w := a.Clone()
	vt := Identity(n)
	for sweep := 0; sweep < 100; sweep++ {
		if offDiagNorm(w) <= 1e-14*(1+w.MaxAbs()) {
			return sortedEigen(w, vt), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := float64(t * c)
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					wip := w.data[i*n+p]
					wiq := w.data[i*n+q]
					w.data[i*n+p] = float64(c*wip) - float64(s*wiq)
					w.data[p*n+i] = w.data[i*n+p]
					w.data[i*n+q] = float64(s*wip) + float64(c*wiq)
					w.data[q*n+i] = w.data[i*n+q]
				}
				wpp := w.data[p*n+p]
				wqq := w.data[q*n+q]
				wpq := w.data[p*n+q]
				w.data[p*n+p] = float64(c*c*wpp) - float64(2*s*c*wpq) + float64(s*s*wqq)
				w.data[q*n+q] = float64(s*s*wpp) + float64(2*s*c*wpq) + float64(c*c*wqq)
				w.data[p*n+q] = 0
				w.data[q*n+p] = 0
				rp := vt.data[p*n:][:n]
				rq := vt.data[q*n:][:n]
				for i, vip := range rp {
					viq := rq[i]
					rp[i] = float64(c*vip) - float64(s*viq)
					rq[i] = float64(s*vip) + float64(c*viq)
				}
			}
		}
	}
	if offDiagNorm(w) <= 1e-10*(1+w.MaxAbs()) {
		return sortedEigen(w, vt), nil
	}
	return nil, ErrNoConvergence
}

// TestRotatePairMatchesGoLoop pins rotatePair, the dispatching row-pair
// rotation (the AVX body on amd64 hosts that have AVX for whole groups of
// four), to its Go loop rotatePairGo: lengths 1–40 and 129, ±0,
// subnormals, ±Inf and NaN among the rows and the rotation. A NaN must meet
// a NaN, every other element its exact bits. A body that fuses a multiply
// into the add or subtract (VFMADD231PD) fails it, and the rotation must
// not allocate.
func TestRotatePairMatchesGoLoop(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.5e-310, 1e-300, -3e-160, 1e300, -2e200, math.MaxFloat64,
	}
	draw := func(rate float64) float64 {
		if r.Float64() < rate {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	lengths := []int{129}
	for n := 1; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, rate := range []float64{0, 0.05, 0.5} {
			for trial := 0; trial < 4; trial++ {
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = draw(rate), draw(rate)
				}
				c, s := draw(rate/4), draw(rate/4)
				gx, gy := append([]float64(nil), x...), append([]float64(nil), y...)
				wx, wy := append([]float64(nil), x...), append([]float64(nil), y...)
				rotatePair(gx, gy, c, s)
				rotatePairGo(wx, wy, c, s)
				for i := range x {
					if !same(gx[i], wx[i]) || !same(gy[i], wy[i]) {
						t.Fatalf("n %d, rate %v, c %v, s %v, x %v, y %v: element %d = (%v, %v), Go loop (%v, %v)",
							n, rate, c, s, x[i], y[i], i, gx[i], gy[i], wx[i], wy[i])
					}
				}
			}
		}
	}
	x, y := randomVec(r, 129), randomVec(r, 129)
	if allocs := testing.AllocsPerRun(10, func() { rotatePair(x, y, 0.8, 0.6) }); allocs != 0 {
		t.Errorf("rotatePair: %v allocs per call, want 0", allocs)
	}
}

func randomSymmetric(r *rand.Rand, n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// Property: A·v_k = λ_k·v_k for every eigenpair.
func TestPropEigenpairsSatisfyDefinition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSymmetric(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			v := e.Vectors.Col(k)
			av := a.MulVec(v)
			lv := VecScale(e.Values[k], v)
			if !VecApproxEqual(av, lv, 1e-8*(1+math.Abs(e.Values[k]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvector matrix is orthonormal (VᵀV = I).
func TestPropEigenvectorsOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSymmetric(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		vtv := e.Vectors.Transpose().Mul(e.Vectors)
		return vtv.ApproxEqual(Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: reconstruction V·diag(λ)·Vᵀ = A.
func TestPropEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSymmetric(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		rec := e.Vectors.Mul(Diagonal(e.Values)).Mul(e.Vectors.Transpose())
		return rec.ApproxEqual(a, 1e-8*(1+a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: trace(A) = Σλ and eigenvalues sorted ascending.
func TestPropEigenTraceAndOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSymmetric(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		for i := 1; i < n; i++ {
			if e.Values[i] < e.Values[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomSPD(r *rand.Rand, n int) *Dense {
	// Laplacian-like SPD matrix: diagonally dominant with negative couplings,
	// the structure a thermal conductance matrix has.
	b := New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.5 {
				g := r.Float64() + 0.1
				b.Add(i, j, -g)
				b.Add(j, i, -g)
				b.Add(i, i, g)
				b.Add(j, j, g)
			}
		}
		b.Add(i, i, r.Float64()+0.05) // conductance to ambient keeps it PD
	}
	return b
}

func TestSymDefEigenDimensionChecks(t *testing.T) {
	if _, err := SymDefEigen([]float64{1, 2}, New(3, 3)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := SymDefEigen([]float64{1, -1}, randomSPD(rand.New(rand.NewSource(1)), 2)); err == nil {
		t.Fatal("expected error for non-positive diagonal")
	}
}

// Property: SymDefEigen factors A⁻¹B, i.e. A⁻¹B·V = V·diag(λ), V·V⁻¹ = I,
// and with SPD B all eigenvalues are positive.
func TestPropSymDefEigenFactorization(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		aDiag := make([]float64, n)
		for i := range aDiag {
			aDiag[i] = 0.1 + r.Float64()*5
		}
		b := randomSPD(r, n)
		ge, err := SymDefEigen(aDiag, b)
		if err != nil {
			return false
		}
		// All eigenvalues positive.
		for _, l := range ge.Lambda {
			if l <= 0 {
				return false
			}
		}
		// V·V⁻¹ = I.
		if !ge.V.Mul(ge.VInv).ApproxEqual(Identity(n), 1e-8) {
			return false
		}
		// A⁻¹B = V·diag(λ)·V⁻¹.
		ainvB := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ainvB.Set(i, j, b.At(i, j)/aDiag[i])
			}
		}
		rec := ge.V.Mul(Diagonal(ge.Lambda)).Mul(ge.VInv)
		return rec.ApproxEqual(ainvB, 1e-7*(1+ainvB.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSymEigen129(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	a := randomSymmetric(r, 129)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}
