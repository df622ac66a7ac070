//go:build !amd64

package dist

// hasAVX2 is false off amd64: axpy always runs axpyGo.
func hasAVX2() bool { return false }

// axpyAVX2 exists only on amd64; useAVX2 is never true here.
func axpyAVX2(row, q []float64, p float64) {
	panic("dist: axpyAVX2 called off amd64")
}
