package matrix

import "fmt"

// panelRows is the number of rows a panel interleaves: four YMM registers of
// four doubles each in the AVX body.
const panelRows = 16

// Panels is an immutable, product-only copy of a dense rows×cols matrix m,
// laid out for MulVecTo. Whole groups of 16 rows are stored as
// column-interleaved panels: panel g holds m[16g+l][j] at offset
// g·16·cols + j·16 + l, so column j of the group is 16 contiguous doubles,
// and the product reads each panel front to back with one broadcast of x[j]
// per column. The last rows mod 16 rows stay row-major. Without AVX (see
// useAVX) no rows are packed: a column-interleaved loop in Go runs slower
// than the row-major one, so every row stays row-major for mulRowsGo.
//
// Every output is the same sum as Dense.MulVecTo's: it starts at +0 and adds
// float64(m[i][j]·x[j]) for j = 0, 1, … in order, so the two are bit for bit
// equal on every input (a NaN sum may carry another NaN's payload). Only
// the memory order of the rows' entries changes.
type Panels struct {
	rows, cols int
	k          int       // the packed rows: rows &^ 15 with AVX, else none
	packed     []float64 // the whole panels, k rows
	tail       []float64 // the other rows, row-major
}

// NewPanels packs the rows×cols matrix whose entry (i, j) is at(i, j),
// reading each entry once. It fills a matrix that exists in no other form;
// Dense.Panels packs a Dense.
func NewPanels(rows, cols int, at func(i, j int) float64) *Panels {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid panel dimensions %dx%d", rows, cols))
	}
	k := 0
	if useAVX {
		k = rows &^ (panelRows - 1)
	}
	p := &Panels{rows: rows, cols: cols, k: k, packed: make([]float64, k*cols), tail: make([]float64, (rows-k)*cols)}
	for i := 0; i < k; i++ {
		panel := p.packed[(i&^(panelRows-1))*cols:]
		for j := 0; j < cols; j++ {
			panel[j*panelRows+(i&(panelRows-1))] = at(i, j)
		}
	}
	for i := k; i < rows; i++ {
		row := p.tail[(i-k)*cols:][:cols]
		for j := range row {
			row[j] = at(i, j)
		}
	}
	return p
}

// Panels packs the first cols columns of m, m[:, :cols], into panels.
func (m *Dense) Panels(cols int) *Panels {
	if cols > m.cols {
		panic(fmt.Sprintf("matrix: cannot pack %d columns of a %dx%d matrix", cols, m.rows, m.cols))
	}
	return NewPanels(m.rows, cols, m.At)
}

// MulVecTo computes the matrix-vector product p·x into dst, which must have
// one entry per row, bit for bit what Dense.MulVecTo computes on the matrix
// p was packed from. It performs no allocation; dst must not alias x.
func (p *Panels) MulVecTo(dst, x []float64) {
	if p.cols != len(x) {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d panels by vector of length %d", p.rows, p.cols, len(x)))
	}
	if len(dst) != p.rows {
		panic(fmt.Sprintf("matrix: Panels.MulVecTo destination length %d, want %d", len(dst), p.rows))
	}
	if p.k > 0 {
		mulPanelsTo(dst[:p.k], p.packed, x)
	}
	mulRowsGo(dst[p.k:], p.tail, p.cols, x)
}
