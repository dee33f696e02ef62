package matrix

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoConvergence is returned when an iterative eigensolver fails to reach
// its tolerance within the sweep budget.
var ErrNoConvergence = errors.New("matrix: eigensolver did not converge")

// Eigen holds the eigendecomposition of a symmetric matrix:
// A = V * diag(Values) * Vᵀ with orthonormal columns in V, sorted ascending.
type Eigen struct {
	Values  []float64
	Vectors *Dense // column k is the eigenvector for Values[k]
}

// SymEigen computes the eigendecomposition of the symmetric matrix a with the
// cyclic Jacobi method. The input must be symmetric; asymmetry beyond 1e-9
// relative to the largest entry is rejected.
func SymEigen(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: SymEigen of non-square %dx%d matrix", a.rows, a.cols)
	}
	tol := 1e-9 * (1 + a.MaxAbs())
	if !a.IsSymmetric(tol) {
		return nil, fmt.Errorf("matrix: SymEigen input is not symmetric within %g", tol)
	}
	n := a.rows
	w := a.Clone()
	// vt accumulates Vᵀ: rotating its rows p and q walks contiguous memory
	// where rotating V's columns would stride by n, with the same arithmetic.
	vt := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
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
				// Classic Jacobi rotation parameters.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				applyJacobiRotation(w, p, q, c, s)
				rotateRows(vt, p, q, c, s)
			}
		}
	}
	if offDiagNorm(w) <= 1e-10*(1+w.MaxAbs()) {
		// Converged to a slightly looser tolerance; accept.
		return sortedEigen(w, vt), nil
	}
	return nil, ErrNoConvergence
}

// applyJacobiRotation applies the two-sided rotation J(p,q,θ)ᵀ W J(p,q,θ).
func applyJacobiRotation(w *Dense, p, q int, c, s float64) {
	n := w.rows
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		wip := w.data[i*n+p]
		wiq := w.data[i*n+q]
		w.data[i*n+p] = c*wip - s*wiq
		w.data[p*n+i] = w.data[i*n+p]
		w.data[i*n+q] = s*wip + c*wiq
		w.data[q*n+i] = w.data[i*n+q]
	}
	wpp := w.data[p*n+p]
	wqq := w.data[q*n+q]
	wpq := w.data[p*n+q]
	w.data[p*n+p] = c*c*wpp - 2*s*c*wpq + s*s*wqq
	w.data[q*n+q] = s*s*wpp + 2*s*c*wpq + c*c*wqq
	w.data[p*n+q] = 0
	w.data[q*n+p] = 0
}

// rotateRows applies the rotation to rows p and q of vt, the transposed
// eigenvector accumulator.
func rotateRows(vt *Dense, p, q int, c, s float64) {
	n := vt.cols
	rp := vt.data[p*n:][:n]
	rq := vt.data[q*n:][:n]
	for i, vip := range rp {
		viq := rq[i]
		rp[i] = c*vip - s*viq
		rq[i] = s*vip + c*viq
	}
}

func offDiagNorm(w *Dense) float64 {
	n := w.rows
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += 2 * w.data[i*n+j] * w.data[i*n+j]
		}
	}
	return math.Sqrt(s)
}

// sortedEigen returns the eigenpairs of the diagonalized w in ascending
// order, reading eigenvector k from row k of the accumulator vt.
func sortedEigen(w, vt *Dense) *Eigen {
	n := w.rows
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	vals := w.DiagonalOf()
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })

	e := &Eigen{Values: make([]float64, n), Vectors: New(n, n)}
	for k, src := range idx {
		e.Values[k] = vals[src]
		for i, x := range vt.data[src*n : (src+1)*n] {
			e.Vectors.data[i*n+k] = x
		}
	}
	return e
}

// GeneralizedEigen holds the solution of the generalized symmetric-definite
// eigenproblem B·v = λ·A·v with A diagonal positive: eigenvalues Lambda and
// the (A-orthogonal) eigenvector matrix V together with its inverse.
//
// For the thermal system C = −A⁻¹B this gives C = V·diag(−Lambda)·V⁻¹, the
// factorization the paper's Eqs. (8)–(10) rely on.
type GeneralizedEigen struct {
	Lambda []float64 // eigenvalues of A⁻¹B, all positive for SPD B
	V      *Dense    // eigenvectors of A⁻¹B (columns)
	VInv   *Dense    // V⁻¹
}

// SymDefEigen solves A⁻¹B = V·diag(λ)·V⁻¹ where aDiag is the positive
// diagonal of A and b is symmetric positive definite. It reduces to the
// ordinary symmetric problem S = A^{-1/2} B A^{-1/2}, whose eigenvectors U
// map back as V = A^{-1/2} U and V⁻¹ = Uᵀ A^{1/2}.
func SymDefEigen(aDiag []float64, b *Dense) (*GeneralizedEigen, error) {
	n := len(aDiag)
	if b.rows != n || b.cols != n {
		return nil, fmt.Errorf("matrix: SymDefEigen dimension mismatch: diag %d vs %dx%d", n, b.rows, b.cols)
	}
	for i, v := range aDiag {
		if v <= 0 {
			return nil, fmt.Errorf("matrix: SymDefEigen requires positive diagonal A, got A[%d]=%g", i, v)
		}
	}
	invSqrt := make([]float64, n)
	sqrtA := make([]float64, n)
	for i, v := range aDiag {
		sqrtA[i] = math.Sqrt(v)
		invSqrt[i] = 1 / sqrtA[i]
	}
	// S = A^{-1/2} B A^{-1/2}, symmetric.
	s := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.data[i*n+j] = invSqrt[i] * b.data[i*n+j] * invSqrt[j]
		}
	}
	es, err := SymEigen(s)
	if err != nil {
		return nil, err
	}
	ge := &GeneralizedEigen{Lambda: es.Values, V: New(n, n), VInv: New(n, n)}
	u := es.Vectors
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			ge.V.data[i*n+k] = invSqrt[i] * u.data[i*n+k]
			// VInv = Uᵀ A^{1/2}: row k of VInv is column k of U scaled by sqrtA.
			ge.VInv.data[k*n+i] = u.data[i*n+k] * sqrtA[i]
		}
	}
	return ge, nil
}
