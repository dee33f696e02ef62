package matrix

// DisableAVX turns the assembly bodies off until restore is called, so a
// test can run the Go loops a host without AVX runs.
func DisableAVX() (restore func()) {
	saved := useAVX
	useAVX = false
	return func() { useAVX = saved }
}
