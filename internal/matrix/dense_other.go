//go:build !amd64

package matrix

// mulRowsTo is mulRowsGo: the assembly body exists for amd64 only.
func mulRowsTo(dst, data []float64, stride int, x []float64) {
	mulRowsGo(dst, data, stride, x)
}
