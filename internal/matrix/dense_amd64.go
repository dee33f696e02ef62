package matrix

// useAVX is set once at init: the CPU has AVX (CPUID.1:ECX bit 28) and the
// OS saves the YMM registers (OSXSAVE, bit 27, and XCR0 bits 1 and 2).
var useAVX = cpuid1ECX()&(1<<27|1<<28) == 1<<27|1<<28 && xgetbv0()&6 == 6

// mulPanelsTo runs the AVX body (dense_amd64.s) over the whole panels of
// dst, which holds at least one. NewPanels packs panels only when useAVX
// holds; without AVX every row stays row-major for mulRowsGo.
func mulPanelsTo(dst, panels, x []float64) {
	_ = panels[len(dst)*len(x)-1] // the assembly reads every panel of dst
	mulPanels16AVX(dst, panels, x)
}

// rotatedSumMax is rotatedSumMaxGo with the values in groups of sixteen
// taken by the AVX body (dense_amd64.s), bit for bit the same sums and the
// same maximum, except that a zero maximum, whose sign VecMax takes from the
// first zero it meets, comes from the Go loop.
func rotatedSumMax(t, bg, h, w []float64, first int) float64 {
	if useAVX && len(bg)&15 == 0 {
		if m := rotatedSumMax16AVX(bg, h, w, first); m != 0 {
			return m
		}
	}
	return rotatedSumMaxGo(t, bg, h, w, first)
}

// rotatePair is rotatePairGo with the elements in groups of four taken by
// the AVX body (dense_amd64.s), bit for bit the same products and sums.
func rotatePair(x, y []float64, c, s float64) {
	k := 0
	if useAVX {
		k = len(x) &^ 3
		rotatePair4AVX(x[:k], y[:k], c, s)
	}
	rotatePairGo(x[k:], y[k:], c, s)
}

//go:noescape
func mulPanels16AVX(dst, panels, x []float64)

//go:noescape
func rotatedSumMax16AVX(bg, h, w []float64, first int) float64

//go:noescape
func rotatePair4AVX(x, y []float64, c, s float64)

func cpuid1ECX() uint32

func xgetbv0() uint32
