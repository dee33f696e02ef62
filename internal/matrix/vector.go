package matrix

import (
	"fmt"
	"math"
)

// Vector helpers. The thermal code passes temperatures and powers around as
// plain []float64; these functions keep that code terse without allocating a
// wrapper type.

// VecAdd returns a + b.
func VecAdd(a, b []float64) []float64 {
	checkLen(a, b)
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c
}

// VecSub returns a - b.
func VecSub(a, b []float64) []float64 {
	checkLen(a, b)
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}

// VecScale returns s*a.
func VecScale(s float64, a []float64) []float64 {
	c := make([]float64, len(a))
	for i := range a {
		c[i] = s * a[i]
	}
	return c
}

// VecSubTo computes dst = a − b without allocating. dst may alias a or b.
func VecSubTo(dst, a, b []float64) {
	checkLen(dst, a)
	checkLen(a, b)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// VecAddTo accumulates dst += a in place.
func VecAddTo(dst, a []float64) {
	checkLen(dst, a)
	for i := range dst {
		dst[i] += a[i]
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// VecMax returns the largest element of a. It panics on an empty slice.
func VecMax(a []float64) float64 {
	if len(a) == 0 {
		panic("matrix: VecMax of empty vector")
	}
	max := a[0]
	for _, v := range a[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// RotatedSumMax returns VecMax(t) for the n = len(bg) values
//
//	t[k] = bg[k] + Σᵢ w[i]·h[((first+i) mod δ)·n + k],  δ = len(w),
//
// the terms added for i = 0, 1, … in order with each product rounded on its
// own, and slots whose w[i] is ±0 skipped (so an infinite table entry under
// an idle slot adds nothing). h holds δ rows of n; t is scratch of length
// n that only the portable path writes. It is one epoch of a ring rotation
// (rotation.RingEvaluator): bg the background rise, w the slot powers, h the
// ring's one-watt responses by epoch.
func RotatedSumMax(t, bg, h, w []float64, first int) float64 {
	n, d := len(bg), len(w)
	if n == 0 || uint(first) >= uint(d) {
		panic("matrix: RotatedSumMax needs values and a first slot in range")
	}
	return rotatedSumMax(t[:n], bg, h[:d*n], w, first)
}

// rotatedSumMaxGo is RotatedSumMax's loop. The non-zero slots are added two
// per pass over t: t[k] + a + b evaluates left to right, so each value sees
// the same roundings as one pass per slot, at half the loads and stores of
// t. Each product is converted explicitly, which keeps the compiler from
// fusing it into the add (arm64 would otherwise emit FMADDD and round once).
//
// rotatedSumMax (dense_amd64.go, dense_other.go) dispatches here; it is the
// kernel on every path without AVX and the tests' oracle for the assembly.
func rotatedSumMaxGo(t, bg, h, w []float64, first int) float64 {
	n, d := len(t), len(w)
	copy(t, bg)
	var w0 float64
	var r0 []float64
	pending := false
	row := first
	for _, wi := range w {
		r := h[row*n:][:n]
		if row++; row == d {
			row = 0
		}
		if wi == 0 {
			continue
		}
		if !pending {
			w0, r0, pending = wi, r, true
			continue
		}
		for k := range t {
			t[k] = t[k] + float64(w0*r0[k]) + float64(wi*r[k])
		}
		pending = false
	}
	if pending {
		for k := range t {
			t[k] += float64(w0 * r0[k])
		}
	}
	return VecMax(t)
}

// VecNormInf returns the infinity norm of a.
func VecNormInf(a []float64) float64 {
	var max float64
	for _, v := range a {
		if x := math.Abs(v); x > max {
			max = x
		}
	}
	return max
}

// VecNorm2 returns the Euclidean norm of a.
func VecNorm2(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// VecApproxEqual reports whether a and b agree elementwise within tol.
func VecApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// Constant returns a length-n vector with every element v.
func Constant(n int, v float64) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = v
	}
	return c
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: vector length mismatch %d vs %d", len(a), len(b)))
	}
}
