package dist

// axpyAVX2 is axpy in AVX2 assembly (axpy_amd64.s): row[k] +=
// float64(p * q[k]) for every k < len(q), with VMULPD then VADDPD on
// 16 cells per iteration, then 4, then 1. The caller guarantees
// len(row) >= len(q), that the slices do not overlap, and that the CPU
// has AVX2.
//
//go:noescape
func axpyAVX2(row, q []float64, p float64)

// cpuid executes the CPUID instruction for leaf eaxArg, sub-leaf
// ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
