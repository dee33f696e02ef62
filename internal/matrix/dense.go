// Package matrix provides the dense linear algebra needed by the RC thermal
// model and the analytical peak-temperature method: matrix arithmetic,
// Cholesky factorization, a cyclic Jacobi eigensolver for symmetric
// matrices, the symmetric-definite generalized eigenproblem, and the
// eigen-based matrix exponential. (The LU factorization and the Padé
// exponential that check them live in the package's tests.)
//
// Matrices are small and dense (an N-node thermal network has N on the order
// of a few hundred), so the package favours clarity and numerical robustness
// over blocked performance tricks. One exception is Panels, the packed
// product-only form of the matrices a simulation multiplies at every step:
// on amd64 with AVX its kernel keeps 16 rows' sums in flight in four YMM
// registers without changing the order of any sum, so it computes what
// Dense.MulVecTo computes, bit for bit. Elsewhere it stays row-major and runs
// Dense.MulVecTo's Go loop. The other is SymEigen, which rotates contiguous
// rows instead of strided columns, four elements per YMM register on amd64
// with AVX, with the same bits as the column-wise Jacobi rotation.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from row slices. All rows must have equal length.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: NewFromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diagonal returns a square matrix with d on the diagonal.
func Diagonal(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice sharing the matrix's storage. It avoids
// the copy of Row on hot paths; the caller must not modify the contents.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// DiagonalOf returns a copy of the main diagonal.
func (m *Dense) DiagonalOf() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m.data[i*m.cols+i]
	}
	return out
}

// Plus returns m + b.
func (m *Dense) Plus(b *Dense) *Dense {
	m.sameShape(b)
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = m.data[i] + b.data[i]
	}
	return c
}

// Minus returns m - b.
func (m *Dense) Minus(b *Dense) *Dense {
	m.sameShape(b)
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = m.data[i] - b.data[i]
	}
	return c
}

// Scaled returns s*m.
func (m *Dense) Scaled(s float64) *Dense {
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = s * m.data[i]
	}
	return c
}

func (m *Dense) sameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m*b.
func (m *Dense) Mul(b *Dense) *Dense {
	c := New(m.rows, b.cols)
	m.MulTo(c, b)
	return c
}

// MulTo computes the matrix product m*b into dst, which must be
// m.Rows()×b.Cols(). It performs no allocation. dst must not alias m or b.
func (m *Dense) MulTo(dst, b *Dense) {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulTo destination is %dx%d, want %dx%d", dst.rows, dst.cols, m.rows, b.cols))
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		ci := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k := 0; k < m.cols; k++ {
			aik := m.data[i*m.cols+k]
			if aik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j := range ci {
				ci[j] += float64(aik * bk[j]) // rounded product: no fused multiply-add on arm64
			}
		}
	}
}

// MulVec returns the matrix-vector product m*x.
func (m *Dense) MulVec(x []float64) []float64 {
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes the matrix-vector product m*x into dst, which must have
// length m.Rows(). It performs no allocation — the destination-passing twin of
// MulVec for hot loops. dst must not alias x (the product reads every element
// of x for every element of dst it writes).
func (m *Dense) MulVecTo(dst, x []float64) {
	if m.cols != len(x) {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: MulVecTo destination length %d, want %d", len(dst), m.rows))
	}
	mulRowsGo(dst, m.data, m.cols, x)
}

// mulRowsGo sets dst[i] = Σⱼ data[i·stride+j]·x[j] for every i < len(dst),
// each sum starting at +0 and adding its terms for j = 0, 1, … in order. It
// runs four rows per pass with one accumulator each, so four independent
// chains of adds are in flight instead of one, while every row sees the same
// roundings in the same order as the one-row loop: the result is bit-identical
// to it. A pure-Go eight-row pass measured slower. Each row is resliced to
// len(x), which lets the compiler drop the bounds checks in the inner loops.
// Each product is converted explicitly, which keeps the compiler from fusing
// it into the add: arm64 would otherwise emit FMADDD and round once.
//
// It is Dense.MulVecTo's kernel, Panels.MulVecTo's for the rows after the
// last whole panel, and the oracle the tests compare both panel kernels
// with.
func mulRowsGo(dst, data []float64, stride int, x []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := data[i*stride:][:n]
		r1 := data[(i+1)*stride:][:n]
		r2 := data[(i+2)*stride:][:n]
		r3 := data[(i+3)*stride:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		row := data[i*stride:][:n]
		var s float64
		for j, xj := range x {
			s += float64(row[j] * xj)
		}
		dst[i] = s
	}
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// InfNorm returns the maximum absolute row sum of m.
func (m *Dense) InfNorm() float64 {
	var max float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(v)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// ApproxEqual reports whether m and b have the same shape and agree entrywise
// within tol.
func (m *Dense) ApproxEqual(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "% .6g", m.data[i*m.cols+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
