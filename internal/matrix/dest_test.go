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
	p, cores := m.Panels(n), m.Panels(64)
	if a := testing.AllocsPerRun(100, func() { p.MulVecTo(dst, x) }); a != 0 {
		t.Errorf("Panels.MulVecTo allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { cores.MulVecTo(dst, x[:64]) }); a != 0 {
		t.Errorf("Panels.MulVecTo (%d×64) allocates %v per run, want 0", n, a)
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

// TestMulVecRowsMatchOneRowLoop pins Dense.MulVecTo and Panels.MulVecTo to
// the one-row loop, bit for bit: each row is its own sum from +0 over j in
// order, whatever the row count mod 4 and mod 16, and the signs, zeros,
// infinities and NaNs in the data. Only NaN payloads are exempt: which of
// two NaNs an add returns depends on the operand order the compiler picks,
// which Go leaves open.
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
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 129} {
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
				if rows > 0 {
					got := randomVec(r, rows)
					m.Panels(cols).MulVecTo(got, x)
					check("Panels.MulVecTo", m, x, got)
				}
			}
		}
	}
}

// TestPanelsPrefixMatchesZeroPadded pins the bit-identity the dense steady
// state relies on: the panels of a matrix's first k columns, times x, equal
// bit for bit the full row-major product with x padded by +0, at any sign
// pattern of the matrix, with ±0 inside the prefix, and at k = 1 and
// k = cols. Packing more columns than the matrix has panics.
func TestPanelsPrefixMatchesZeroPadded(t *testing.T) {
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
		k := 1 + r.Intn(cols)
		switch trial {
		case 0:
			k = 1
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
		m.Panels(k).MulVecTo(got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%dx%d, k=%d): row %d = %v (%#x), zero-padded product %v (%#x)",
					trial, rows, cols, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Dense.Panels accepted more columns than the matrix has")
		}
	}()
	New(3, 4).Panels(5)
}

// TestPanelsMatchGoLoop pins Panels.MulVecTo to the row-major Go loop
// mulRowsGo bit for bit. On amd64 hosts with AVX its whole panels run the
// AVX body; elsewhere NewPanels packs none and every row runs mulRowsGo. It
// covers 1–40, 129 and 513 rows (every remainder mod 16), column counts that
// are not multiples of 16, and ±0, subnormals, ±Inf, NaN and magnitudes
// whose products overflow or underflow. A NaN must meet a NaN, every other
// output its exact bits. A body that fuses the multiply into the add
// (VFMADD231PD) fails it.
func TestPanelsMatchGoLoop(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.5e-310, 1e-300, -3e-160, 1e300, -2e200, math.MaxFloat64,
	}
	// draw returns a signed normal value, or with probability rate one of
	// the specials.
	draw := func(rate float64) float64 {
		if r.Float64() < rate {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	same := func(name string, rows, cols int, rate float64, got, want []float64) {
		t.Helper()
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s %dx%d, rate %v: row %d = %v (%#x), Go loop %v (%#x)",
					name, rows, cols, rate, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	var rowCounts []int
	for rows := 1; rows <= 40; rows++ {
		rowCounts = append(rowCounts, rows)
	}
	rowCounts = append(rowCounts, 129, 513)
	for _, cols := range []int{1, 2, 3, 15, 17, 33, 64, 129} {
		for _, rows := range rowCounts {
			for _, rate := range []float64{0, 0.05, 0.5} {
				data := make([]float64, rows*cols)
				for i := range data {
					data[i] = draw(rate)
				}
				x := make([]float64, cols)
				for i := range x {
					x[i] = draw(rate)
				}
				want := randomVec(r, rows)
				mulRowsGo(want, data, cols, x)
				p := NewPanels(rows, cols, func(i, j int) float64 { return data[i*cols+j] })
				got := randomVec(r, rows) // stale garbage must be fully overwritten
				p.MulVecTo(got, x)
				same("Panels.MulVecTo", rows, cols, rate, got, want)
				if useAVX && len(p.packed) != (rows&^15)*cols {
					t.Fatalf("%dx%d: %d packed entries with AVX, want %d", rows, cols, len(p.packed), (rows&^15)*cols)
				}
			}
		}
	}
}

// TestRotatedSumMaxMatchesGoLoop pins rotatedSumMax, the dispatching ring
// walk (the AVX body on amd64 hosts that have AVX, for 16 and 64 values), to
// its Go loop rotatedSumMaxGo, and that to one pass per slot followed by
// VecMax: δ of 1–28 from every first slot, idle (±0) slots, and ±0,
// subnormals, ±Inf and NaN among the background, the table and the slot
// powers. A NaN must meet a NaN, every other result its exact bits. A body
// that fuses the multiply into the add (VFMADD231PD) fails it.
func TestRotatedSumMaxMatchesGoLoop(t *testing.T) {
	r := rand.New(rand.NewSource(25))
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
	onePass := func(bg, h, w []float64, first int) float64 {
		n, d := len(bg), len(w)
		t := append([]float64(nil), bg...)
		for i, wi := range w {
			if wi == 0 {
				continue
			}
			row := h[(first+i)%d*n:][:n]
			for k := range t {
				t[k] += float64(wi * row[k])
			}
		}
		return VecMax(t)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, n := range []int{1, 5, 16, 17, 64} {
		for d := 1; d <= 28; d++ {
			for _, rate := range []float64{0, 0.02, 0.3} {
				bg, h, w := make([]float64, n), make([]float64, d*n), make([]float64, d)
				for i := range bg {
					bg[i] = draw(rate)
				}
				for i := range h {
					h[i] = draw(rate)
				}
				for i := range w {
					switch x := r.Float64(); {
					case x < 0.2:
						w[i] = 0
					case x < 0.3:
						w[i] = math.Copysign(0, -1)
					default:
						w[i] = draw(rate)
					}
				}
				if rate == 0.3 && d%3 == 0 {
					// Every value at or below zero, with zeros of both signs
					// among them: the largest is a zero.
					for i := range bg {
						bg[i] = -math.Abs(draw(0))
						if r.Intn(3) == 0 {
							bg[i] = specials[r.Intn(2)]
						}
					}
					clear(w)
				}
				scratch := make([]float64, n)
				for first := 0; first < d; first++ {
					got := rotatedSumMax(scratch, bg, h, w, first)
					want := rotatedSumMaxGo(make([]float64, n), bg, h, w, first)
					if !same(got, want) {
						t.Fatalf("n %d, δ %d, first %d, rate %v: %v (%#x), Go loop %v (%#x)",
							n, d, first, rate, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if one := onePass(bg, h, w, first); !same(want, one) {
						t.Fatalf("n %d, δ %d, first %d, rate %v: Go loop %v, one pass per slot %v", n, d, first, rate, want, one)
					}
				}
			}
		}
	}
	bg, h, w, scratch := randomVec(r, 64), randomVec(r, 6*64), randomVec(r, 6), make([]float64, 64)
	if allocs := testing.AllocsPerRun(10, func() { RotatedSumMax(scratch, bg, h, w, 5) }); allocs != 0 {
		t.Errorf("RotatedSumMax: %v allocs per call, want 0", allocs)
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

// BenchmarkHotloopMulVecTo is the dense propagator product a Stepper runs at
// every step: the 129×129 e^{C·dt} of the paper's 8×8 chip, packed into
// panels, times the node-temperature deviation.
func BenchmarkHotloopMulVecTo(b *testing.B) {
	m, x, dst := benchKernelSetup(b)
	p := m.Panels(m.cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulVecTo(dst, x)
	}
}

// BenchmarkHotloopMulVecPrefixTo is the dense steady-state product: the
// core columns of the 8×8 chip's 129×129 B⁻¹, packed into 129×64 panels,
// times the 64 core powers.
func BenchmarkHotloopMulVecPrefixTo(b *testing.B) {
	m, x, dst := benchKernelSetup(b)
	p := m.Panels(64)
	x = x[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulVecTo(dst, x)
	}
}
