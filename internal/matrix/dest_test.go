package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Golden property: the destination-passing kernels are bit-identical to their
// allocating twins across random seeds — same arithmetic, same order, so the
// hot loop can switch between them without perturbing simulation output.

func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPropMulVecToBitIdenticalToMulVec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(40), 1+r.Intn(40)
		m := randomDense(r, rows, cols)
		x := randomVec(r, cols)
		dst := randomVec(r, rows) // stale garbage must be fully overwritten
		m.MulVecTo(dst, x)
		return bitIdentical(dst, m.MulVec(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropVecSubToBitIdenticalToVecSub(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		a, b := randomVec(r, n), randomVec(r, n)
		dst := make([]float64, n)
		VecSubTo(dst, a, b)
		if !bitIdentical(dst, VecSub(a, b)) {
			return false
		}
		// Aliasing dst == a is allowed and must give the same answer.
		want := VecSub(a, b)
		VecSubTo(a, a, b)
		return bitIdentical(a, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropMulToBitIdenticalToMul(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randomDense(r, rows, inner)
		b := randomDense(r, inner, cols)
		dst := randomDense(r, rows, cols) // stale garbage
		a.MulTo(dst, b)
		want := a.Mul(b)
		for i := range dst.data {
			if dst.data[i] != want.data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropExpmEigenToBitIdenticalToExpmEigen(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		aDiag := make([]float64, n)
		for i := range aDiag {
			aDiag[i] = 0.5 + r.Float64()
		}
		ge, err := SymDefEigen(aDiag, randomSPD(r, n))
		if err != nil {
			return false
		}
		neg := VecScale(-1, ge.Lambda)
		tstep := 1e-4 + r.Float64()*1e-3
		want := ExpmEigen(ge.V, neg, ge.VInv, tstep)
		dst, scratch := New(n, n), New(n, n)
		ExpmEigenTo(dst, scratch, ge.V, neg, ge.VInv, tstep)
		for i := range dst.data {
			if dst.data[i] != want.data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDestinationKernelsZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 129 // 8×8 chip: N = 2·64 + 1 thermal nodes
	m := randomDense(r, n, n)
	x := randomVec(r, n)
	dst := make([]float64, n)
	if a := testing.AllocsPerRun(100, func() { m.MulVecTo(dst, x) }); a != 0 {
		t.Errorf("MulVecTo allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.MulVecPrefixTo(dst, x[:64]) }); a != 0 {
		t.Errorf("MulVecPrefixTo allocates %v per run, want 0", a)
	}
	b := randomVec(r, n)
	if a := testing.AllocsPerRun(100, func() { VecSubTo(dst, x, b) }); a != 0 {
		t.Errorf("VecSubTo allocates %v per run, want 0", a)
	}
	md, ms := New(n, n), New(n, n)
	lambda := randomVec(r, n)
	if a := testing.AllocsPerRun(5, func() { ExpmEigenTo(md, ms, m, lambda, m, 1e-4) }); a != 0 {
		t.Errorf("ExpmEigenTo allocates %v per run, want 0", a)
	}
}

func TestMulVecToShapePanics(t *testing.T) {
	m := New(3, 4)
	for _, tc := range []struct {
		name   string
		dst, x []float64
	}{
		{"short dst", make([]float64, 2), make([]float64, 4)},
		{"short x", make([]float64, 3), make([]float64, 3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulVecTo did not panic", tc.name)
				}
			}()
			m.MulVecTo(tc.dst, tc.x)
		}()
	}
}

// TestMulVecPrefixToMatchesZeroPadded pins the bit-identity the dense
// steady state relies on: a product over the first k columns equals, bit for
// bit, the full product with x padded by +0 — at any sign pattern of the
// matrix, with ±0 inside the prefix, and at k = 0 and k = cols.
func TestMulVecPrefixToMatchesZeroPadded(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.Intn(40), 1+r.Intn(40)
		m := randomDense(r, rows, cols)
		for i := range m.data {
			switch r.Intn(8) {
			case 0:
				m.data[i] = 0
			case 1:
				m.data[i] = math.Copysign(0, -1)
			}
		}
		k := r.Intn(cols + 1)
		switch trial {
		case 0:
			k = 0
		case 1:
			k = cols
		}
		x := randomVec(r, k)
		for i := range x {
			switch r.Intn(6) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			}
		}
		padded := make([]float64, cols)
		copy(padded, x)
		want := make([]float64, rows)
		m.MulVecTo(want, padded)
		got := randomVec(r, rows) // stale garbage must be fully overwritten
		m.MulVecPrefixTo(got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%dx%d, k=%d): row %d = %v (%#x), zero-padded product %v (%#x)",
					trial, rows, cols, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("MulVecPrefixTo accepted a prefix longer than the row")
		}
	}()
	New(3, 4).MulVecPrefixTo(make([]float64, 3), make([]float64, 5))
}

// TestMulVecRowsMatchOneRowLoop pins the four-row kernel behind MulVecTo and
// MulVecPrefixTo to the one-row loop, bit for bit: each row is its own sum
// from +0 over j in order, whatever the row count mod 4, the prefix length,
// and the signs, zeros, infinities and NaNs in the data. Only NaN payloads
// are exempt: which of two NaNs an add returns depends on the operand order
// the compiler picks, which Go leaves open.
func TestMulVecRowsMatchOneRowLoop(t *testing.T) {
	oneRow := func(m *Dense, x []float64) []float64 {
		out := make([]float64, m.rows)
		for i := range out {
			var s float64
			for j := range x {
				s += m.data[i*m.cols+j] * x[j]
			}
			out[i] = s
		}
		return out
	}
	r := rand.New(rand.NewSource(18))
	// special draws an entry: a signed normal value, or with probability
	// rate one of ±0, ±Inf and NaN.
	special := func(rate float64) float64 {
		if r.Float64() < rate {
			return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(5)]
		}
		return r.NormFloat64()
	}
	check := func(name string, m *Dense, x, got []float64) {
		t.Helper()
		want := oneRow(m, x)
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s %dx%d, len(x)=%d: row %d = %v (%#x), one-row loop %v (%#x)",
					name, m.rows, m.cols, len(x), i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 129} {
		for _, cols := range []int{1, 2, 5, 64, 129} {
			for _, rate := range []float64{0, 0.02, 0.3} {
				// New rejects a 0-row matrix; the kernel must still handle
				// an empty destination.
				m := &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
				for i := range m.data {
					m.data[i] = special(rate)
				}
				x := make([]float64, cols)
				for i := range x {
					x[i] = special(rate)
				}
				got := randomVec(r, rows) // stale garbage must be fully overwritten
				m.MulVecTo(got, x)
				check("MulVecTo", m, x, got)
				for _, k := range []int{0, 1, cols} {
					got := randomVec(r, rows)
					m.MulVecPrefixTo(got, x[:k])
					check("MulVecPrefixTo", m, x[:k], got)
				}
			}
		}
	}
}

// --- hot-loop kernel baseline (make bench → BENCH_hotloop.json) -------------

func benchKernelSetup(b *testing.B) (*Dense, []float64, []float64) {
	b.Helper()
	r := rand.New(rand.NewSource(11))
	const n = 129
	return randomDense(r, n, n), randomVec(r, n), make([]float64, n)
}

func BenchmarkHotloopMulVecAlloc(b *testing.B) {
	m, x, _ := benchKernelSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.MulVec(x)
	}
}

func BenchmarkHotloopMulVecTo(b *testing.B) {
	m, x, dst := benchKernelSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(dst, x)
	}
}

// BenchmarkHotloopMulVecPrefixTo is the dense steady-state product: the
// 129×129 B⁻¹ of the paper's 8×8 chip times the 64 core powers, over the
// core columns only.
func BenchmarkHotloopMulVecPrefixTo(b *testing.B) {
	m, x, dst := benchKernelSetup(b)
	x = x[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecPrefixTo(dst, x)
	}
}
