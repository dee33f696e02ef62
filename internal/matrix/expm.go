package matrix

import (
	"fmt"
	"math"
)

// ExpmEigen computes e^(A·t) from the factorization A = V·diag(λ)·V⁻¹:
// e^(A·t) = V·diag(e^{λ·t})·V⁻¹. This is the MatEx method the paper uses.
func ExpmEigen(v *Dense, lambda []float64, vinv *Dense, t float64) *Dense {
	n := v.rows
	dst := New(n, n)
	ExpmEigenTo(dst, New(n, n), v, lambda, vinv, t)
	return dst
}

// ExpmEigenTo is the destination-passing form of ExpmEigen: it computes
// e^(A·t) into dst, using scratch to hold the intermediate V·diag(e^{λt})
// product. dst and scratch must both be n×n (n = v.Rows()), must be distinct,
// and must not alias v or vinv. It performs no allocation, so a caller that
// re-derives propagators for many step sizes (τ adaptation, stepper rebuilds)
// can reuse one pair of buffers.
func ExpmEigenTo(dst, scratch *Dense, v *Dense, lambda []float64, vinv *Dense, t float64) {
	n := v.rows
	if len(lambda) != n {
		panic(fmt.Sprintf("matrix: ExpmEigenTo got %d eigenvalues for %dx%d eigenvectors", len(lambda), v.rows, v.cols))
	}
	if scratch.rows != n || scratch.cols != n {
		panic(fmt.Sprintf("matrix: ExpmEigenTo scratch is %dx%d, want %dx%d", scratch.rows, scratch.cols, n, n))
	}
	for k := 0; k < n; k++ {
		e := math.Exp(lambda[k] * t)
		for i := 0; i < n; i++ {
			scratch.data[i*n+k] = v.data[i*n+k] * e
		}
	}
	scratch.MulTo(dst, vinv)
}
