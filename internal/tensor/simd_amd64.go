package tensor

// Declarations for simd_amd64.s and the run-time choice of kernel path: the
// AVX2 inner loops are installed when the CPU and the OS both support them,
// and nothing else (no flag, no environment variable) can select them.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpy4AVX2(o, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy4x2AVX2(o, o2, b *float64, n int, a0, a1, a2, a3, c0, c1, c2, c3 float64)

//go:noescape
func dotColsAVX2(o *float64, n int, a *float64, k int, bt *float64, stride int)

func init() {
	if hasAVX2() {
		simd = &simdLoops{name: "avx2", axpy4: avx2Axpy4, axpy4x2: avx2Axpy4x2, dotCols: avx2DotCols, simdRowOps: avx2RowOps}
	}
}

// hasAVX2 reports whether AVX2 instructions may be executed: the CPU has AVX
// and AVX2, and the OS saves the YMM state across context switches (OSXSAVE
// set and XCR0 enabling both the SSE and the AVX register halves).
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		ymmXCR0 = 0b110   // XCR0: XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&ymmXCR0 != ymmXCR0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// The wrappers below are the only callers of the assembly. Each pins every
// operand to the exact length the assembly reads or writes, so a caller's
// indexing mistake is a Go bounds panic, never a stray access.

func avx2Axpy4(o, b []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b = b[:4*n]
	axpy4AVX2(&o[0], &b[0], n, a0, a1, a2, a3)
}

func avx2Axpy4x2(o, o2, b []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	n := len(o)
	o2 = o2[:n]
	b = b[:4*n]
	axpy4x2AVX2(&o[0], &o2[0], &b[0], n, a0, a1, a2, a3, c0, c1, c2, c3)
}

func avx2DotCols(o, a, bt []float64, stride int) {
	n, k := len(o), len(a)
	if n == 0 || k == 0 || n%4 != 0 || stride < n {
		panic("tensor: avx2DotCols needs a non-empty a and a positive multiple of 4 columns within the stride")
	}
	bt = bt[:(k-1)*stride+n]
	dotColsAVX2(&o[0], n, &a[0], k, &bt[0], stride)
}
