package matrix

import (
	"errors"
	"math"
)

// tridiag.go: in-place eigendecomposition of a symmetric tridiagonal matrix
// by the implicit QL method with Wilkinson shifts (the classical EISPACK
// tql2 routine). The Krylov expm·v kernel diagonalizes its m×m Lanczos
// tridiagonal with it on every convergence check; m stays small (≤ the
// subspace cap), but the O(m³) solve is not free: it is 39 % of
// TestSparseTablesMatchEvaluate's CPU profile. The routine must not
// allocate, because it runs inside the zero-allocation step contract of
// thermal.Stepper.StepTo.

// symTridEigen diagonalizes the n×n symmetric tridiagonal matrix with
// diagonal d[0:n] and subdiagonal e[0:n-1] (e[i] couples rows i and i+1).
// On return d holds the eigenvalues (unsorted) and the columns of z hold the
// corresponding orthonormal eigenvectors; e is destroyed (e must have length
// ≥ n, its last entry is used as workspace). z is a row-major n×n block with
// row stride ldz and must be initialized to the identity by the caller (or
// to a basis to be rotated). The routine performs no allocation.
func symTridEigen(d, e []float64, n int, z []float64, ldz int) error {
	if n == 0 {
		return nil
	}
	e[n-1] = 0
	const maxIter = 50
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Look for a negligible subdiagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps2*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > maxIter {
				return errors.New("matrix: symmetric tridiagonal QL failed to converge")
			}
			// Wilkinson shift from the leading 2×2.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Deflate: recover and restart the sweep.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Accumulate the rotation into the eigenvector block.
				for k := 0; k < n; k++ {
					f := z[k*ldz+i+1]
					z[k*ldz+i+1] = s*z[k*ldz+i] + c*f
					z[k*ldz+i] = c*z[k*ldz+i] - s*f
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// eps2 is the relative negligibility threshold of the QL sweep — a few ulps
// above machine epsilon, matching LAPACK's sterf/steqr practice.
const eps2 = 2.3e-16
