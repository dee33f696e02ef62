//go:build !amd64

package matrix

// mulRowsTo is mulRowsGo: the assembly body exists for amd64 only.
func mulRowsTo(dst, data []float64, stride int, x []float64) {
	mulRowsGo(dst, data, stride, x)
}

// rotatedSumMax is rotatedSumMaxGo: the assembly body exists for amd64 only.
func rotatedSumMax(t, bg, h, w []float64, first int) float64 {
	return rotatedSumMaxGo(t, bg, h, w, first)
}
