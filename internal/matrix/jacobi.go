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
//
// Each rotation (p, q) works on rows p and q of W, which are contiguous,
// where the two-sided update J(p,q,θ)ᵀ·W·J(p,q,θ) would read columns p and
// q with a stride of n. The results are bit for bit those of the column
// update, which reads W[i][p] and W[i][q] on whichever side of the
// diagonal i lies and W[p][q] from the upper triangle (docs/PERFORMANCE.md,
// "Row-major Jacobi"):
//   - a rotation writes each entry of rows and columns p and q to both
//     triangles, so every pair with an index some rotation has involved is
//     symmetric. A pair of two uninvolved indices keeps both of its input
//     entries, and before an index's first rotation its row takes its
//     column's entries there (adoptColumn), as the column update reads them.
//   - a rotation reads only rows p and q, so the new values go to columns
//     p and q only in the rows below p, which the sweep reads again: column
//     q's after each rotation, column p's once after the last q of row p.
//     The one stale entry a rotation meets, row q's at index p, is one the
//     2×2 update overwrites. Each sweep ends by mirroring the lower triangle
//     into the upper one (mirrorLower).
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
	// vt accumulates Vᵀ: its rows p and q take the same rotation as W's.
	vt := Identity(n)
	touched := make([]bool, n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
			return sortedEigen(w, vt), nil
		}
		for p := 0; p < n-1; p++ {
			rp := w.data[p*n:][:n]
			rotated := false
			for q := p + 1; q < n; q++ {
				apq := rp[q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				rq := w.data[q*n:][:n]
				app := rp[p]
				aqq := rq[q]
				// Classic Jacobi rotation parameters.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := float64(t * c)

				adoptColumn(w, p, touched)
				adoptColumn(w, q, touched)
				rotatePair(rp, rq, c, s)
				rp[p] = float64(c*c*app) - float64(2*s*c*apq) + float64(s*s*aqq)
				rq[q] = float64(s*s*app) + float64(2*s*c*apq) + float64(c*c*aqq)
				rp[q] = 0
				rq[p] = 0
				for i := p + 1; i < n; i++ {
					w.data[i*n+q] = rq[i]
				}
				rotatePair(vt.data[p*n:(p+1)*n], vt.data[q*n:(q+1)*n], c, s)
				rotated = true
			}
			if rotated {
				for i := p + 1; i < n; i++ {
					w.data[i*n+p] = rp[i]
				}
			}
		}
		mirrorLower(w, touched)
	}
	if offDiagNorm(w) <= 1e-10*(1+w.MaxAbs()) {
		// Converged to a slightly looser tolerance; accept.
		return sortedEigen(w, vt), nil
	}
	return nil, ErrNoConvergence
}

// adoptColumn readies row k of w for its first rotation: at every index i
// that no rotation has involved, row k takes w[i][k], the entry the column
// update reads. Entries at involved indices are already symmetric.
func adoptColumn(w *Dense, k int, touched []bool) {
	if touched[k] {
		return
	}
	n := w.cols
	for i, done := range touched {
		if !done {
			w.data[k*n+i] = w.data[i*n+k]
		}
	}
	touched[k] = true
}

// mirrorLower copies the lower triangle of w into the upper one at every
// pair with an index some rotation has involved.
func mirrorLower(w *Dense, touched []bool) {
	n := w.cols
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if touched[i] || touched[j] {
				w.data[i*n+j] = w.data[j*n+i]
			}
		}
	}
}

// rotatePairGo sets x[i], y[i] = c·x[i] − s·y[i], s·x[i] + c·y[i], every
// product rounded on its own. It is rotatePair's tail and non-AVX body, and
// the AVX body's oracle.
func rotatePairGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = float64(c*xi) - float64(s*yi)
		y[i] = float64(s*xi) + float64(c*yi)
	}
}

func offDiagNorm(w *Dense) float64 {
	n := w.rows
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += float64(2 * w.data[i*n+j] * w.data[i*n+j])
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
