//go:build !amd64

package matrix

// DisableAVX does nothing: without amd64 the Go loops are the only bodies.
func DisableAVX() (restore func()) { return func() {} }
