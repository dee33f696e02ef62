package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/matrix"
	"repro/internal/thermal"
)

// scaledLikeSymDefEigen returns S = A^{-1/2}·B·A^{-1/2} formed as
// SymDefEigen forms it, (a·b)·c above the diagonal and (c·b)·a below, so S
// can be asymmetric in the last bit.
func scaledLikeSymDefEigen(aDiag []float64, b *matrix.Dense) *matrix.Dense {
	n := len(aDiag)
	invSqrt := make([]float64, n)
	for i, v := range aDiag {
		invSqrt[i] = 1 / math.Sqrt(v)
	}
	s := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, invSqrt[i]*b.At(i, j)*invSqrt[j])
		}
	}
	return s
}

// conductanceLike is a random thermal-style SPD matrix with exact zeros
// where no coupling was drawn, and a random positive diagonal to scale it
// by.
func conductanceLike(r *rand.Rand, n int, coupling float64) (aDiag []float64, b *matrix.Dense) {
	b = matrix.New(n, n)
	aDiag = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < coupling {
				g := r.Float64() + 0.1
				b.Add(i, j, -g)
				b.Add(j, i, -g)
				b.Add(i, i, g)
				b.Add(j, j, g)
			}
		}
		b.Add(i, i, r.Float64()+0.05)
		aDiag[i] = 0.1 + 5*r.Float64()
	}
	return aDiag, b
}

// signedZeros returns a symmetric matrix whose off-diagonal pairs are, at
// random, a normal value, a ±0 of either sign in each triangle, or a value
// only the upper triangle holds a ±0 for; the rest of the lower triangle is
// one ulp away from the upper. Rotations skip the zeros (|a_pq| ≤ 1e-300),
// so indices stay untouched for several rotations.
func signedZeros(r *rand.Rand, n int) *matrix.Dense {
	zero := func() float64 { return math.Copysign(0, float64(r.Intn(2)*2-1)) }
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, r.NormFloat64())
		for j := i + 1; j < n; j++ {
			switch x := r.Float64(); {
			case x < 0.6:
				a.Set(i, j, zero())
				a.Set(j, i, zero())
			default:
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, math.Nextafter(v, math.Inf(r.Intn(2)*2-1)))
			}
		}
	}
	return a
}

// interleavedBlocks couples only indices of equal parity, with the lower
// triangle one ulp away from the upper: the first rotation involving an
// odd index comes after the even ones have all been rotated, so an
// untouched pair's entries both survive the first rotations of the sweep.
func interleavedBlocks(r *rand.Rand, n int) *matrix.Dense {
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, r.NormFloat64())
		for j := i + 2; j < n; j += 2 {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, math.Nextafter(v, math.Inf(r.Intn(2)*2-1)))
		}
	}
	return a
}

// TestSymEigenMatchesColumnOracle pins SymEigen, which rotates rows of W,
// to the column-strided Jacobi loop it replaced, bit for bit in values and
// vectors, on and off the AVX bodies: every n from 1 to 33 and n = 129, on
// exactly symmetric inputs, on inputs scaled as SymDefEigen scales them
// (asymmetric in the last bit, with exact zeros), on ±0 off-diagonals that
// the 1e-300 test skips, on uncoupled blocks, and on the S of the Table I
// 4×4 and 8×8 thermal models.
func TestSymEigenMatchesColumnOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	type input struct {
		name string
		a    *matrix.Dense
	}
	var inputs []input
	sizes := []int{129}
	for n := 1; n <= 33; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		sym := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				sym.Set(i, j, v)
				sym.Set(j, i, v)
			}
		}
		aDiag, b := conductanceLike(r, n, 0.5)
		sparseDiag, sparseB := conductanceLike(r, n, 3/float64(n+1))
		inputs = append(inputs,
			input{fmt.Sprintf("symmetric %d", n), sym},
			input{fmt.Sprintf("scaled %d", n), scaledLikeSymDefEigen(aDiag, b)},
			input{fmt.Sprintf("scaled sparse %d", n), scaledLikeSymDefEigen(sparseDiag, sparseB)},
			input{fmt.Sprintf("signed zeros %d", n), signedZeros(r, n)},
			input{fmt.Sprintf("interleaved blocks %d", n), interleavedBlocks(r, n)},
		)
	}
	for _, grid := range []int{4, 8} {
		m, err := thermal.New(floorplan.MustNew(grid, grid, 0.0009), thermal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("Table I %dx%d", grid, grid), scaledLikeSymDefEigen(m.ADiag(), m.B())})
	}

	check := func(path string, in input) {
		t.Helper()
		want, werr := matrix.SymEigenColumnOracle(in.a)
		got, gerr := matrix.SymEigen(in.a)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s, %s: error %v, oracle %v", path, in.name, gerr, werr)
		}
		if werr != nil {
			return
		}
		n := len(want.Values)
		for k, v := range want.Values {
			if math.Float64bits(got.Values[k]) != math.Float64bits(v) {
				t.Fatalf("%s, %s: value %d = %v, oracle %v", path, in.name, k, got.Values[k], v)
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if g, w := got.Vectors.At(i, k), want.Vectors.At(i, k); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s, %s: vector %d[%d] = %v, oracle %v", path, in.name, k, i, g, w)
				}
			}
		}
	}
	for _, in := range inputs {
		check("AVX", in)
	}
	restore := matrix.DisableAVX()
	defer restore()
	for _, in := range inputs {
		check("Go loop", in)
	}
}
