//go:build !amd64

package matrix

// useAVX is false: the assembly bodies exist for amd64 only, so NewPanels
// packs no panels and every product row runs mulRowsGo.
const useAVX = false

// mulPanelsTo is never called: without AVX there are no panels to multiply.
func mulPanelsTo(dst, panels, x []float64) {
	panic("matrix: panel kernel called without AVX")
}

// rotatedSumMax is rotatedSumMaxGo: the assembly body exists for amd64 only.
func rotatedSumMax(t, bg, h, w []float64, first int) float64 {
	return rotatedSumMaxGo(t, bg, h, w, first)
}

// rotatePair is rotatePairGo: the assembly body exists for amd64 only.
func rotatePair(x, y []float64, c, s float64) {
	rotatePairGo(x, y, c, s)
}
