package dist

// useAVX2 selects the assembly axpy. It is set once, at package
// initialization, from the CPU's feature flags; tests switch it off to
// run the Go loop on the same inputs.
var useAVX2 = hasAVX2()

// axpy adds p·q[k] into row[k] for every k < len(q), each product
// rounded to float64 before the add: bit for bit the scatter loop
// row[off[j]] += float64(p * q[j]) on a contiguous run of cells. The
// dense kernel runs it over the segment (see innerBands). On amd64 CPUs
// with AVX2 it is axpyAVX2, four products per instruction, a multiply
// then an add, never a fused multiply-add; elsewhere it is axpyGo.
// Reslicing row to len(q) here bounds-checks every cell the assembly
// writes.
func axpy(row, q []float64, p float64) {
	row = row[:len(q)]
	if useAVX2 {
		axpyAVX2(row, q, p)
		return
	}
	axpyGo(row, q, p)
}

// axpyGo is the portable axpy, and the oracle the assembly is pinned
// to. The float64 conversion rounds each product, so targets with a
// fused multiply-add (arm64, or amd64 at GOAMD64=v3) do not fuse it.
func axpyGo(row, q []float64, p float64) {
	row = row[:len(q)]
	for k, x := range q {
		row[k] += float64(p * x)
	}
}
