package tensor

// Declarations for simd_amd64.s and the run-time choice of kernel path: the
// widest loop set the CPU and the OS both support is installed at package
// init, and nothing else (no flag, no environment variable) can select one.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func gemmTileAsm(o, o2, a, a2, b *float64, n, k, step int, load, wide bool)

//go:noescape
func dotColsAsm(o *float64, n int, a *float64, k int, bt *float64, stride int, wide bool)

//go:noescape
func transposeAsm(out, m *float64, rows, cols int, wide bool)

// loopSets are this architecture's inner-loop sets under the names
// kernelPath returns; "generic" has none (nil, the pure-Go loops). The two
// run the same assembly, the avx512 set with its 8-lane steps on.
var loopSets = map[string]*simdLoops{
	"avx2":   asmLoops("avx2", false),
	"avx512": asmLoops("avx512", true),
}

func init() {
	simd = loopSets[kernelPath(cpuFeatures())]
}

// cpuFeatures reads what kernelPath decides on. XCR0 is read only when the OS
// has enabled XGETBV (OSXSAVE), and leaf 7 only when the CPU has it.
func cpuFeatures() (maxLeaf, ecx1, ebx7, xcr0 uint32) {
	maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, ecx1, _ = cpuid(1, 0)
	if ecx1&osxsave != 0 {
		xcr0, _ = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return maxLeaf, ecx1, ebx7, xcr0
}

const (
	osxsave  = 1 << 27     // leaf 1 ECX: XGETBV enabled by the OS
	avx      = 1 << 28     // leaf 1 ECX
	avx2     = 1 << 5      // leaf 7 EBX
	avx512f  = 1 << 16     // leaf 7 EBX
	ymmState = 0b110       // XCR0: XMM and YMM state saved
	zmmState = 0b1110_0000 // XCR0: opmask, ZMM0-15 upper halves and ZMM16-31 saved
)

// kernelPath names the widest loop set a CPU may run, from the highest basic
// CPUID leaf, leaf 1's ECX, leaf 7's EBX and XCR0: "avx2" needs AVX and AVX2
// with the YMM state saved across context switches, "avx512" additionally
// AVX512F with the opmask and ZMM state saved; otherwise "generic".
func kernelPath(maxLeaf, ecx1, ebx7, xcr0 uint32) string {
	switch {
	case maxLeaf < 7, ecx1&(osxsave|avx) != osxsave|avx, xcr0&ymmState != ymmState, ebx7&avx2 == 0:
		return "generic"
	case ebx7&avx512f != 0 && xcr0&zmmState == zmmState:
		return "avx512"
	}
	return "avx2"
}

// asmLoops returns the loop set called name, whose assembly runs its 8-lane
// AVX-512 steps when wide is set. The wrappers are the only callers of the
// assembly. Each pins every operand to the exact length the assembly reads or
// writes, so a caller's indexing mistake is a Go bounds panic, never a stray
// access.
func asmLoops(name string, wide bool) *simdLoops {
	return &simdLoops{
		name: name,
		tile: func(o, o2, a, a2, b []float64, k, step int, load bool) {
			n := len(o)
			if n == 0 {
				return
			}
			var p2 *float64 // nil: the one-row form, which reads a2 but never o2
			if o2 != nil {
				p2 = base(o2, n)
			} else {
				a2 = a
			}
			var pa, pa2, pb *float64 // left nil when k == 0: the tile reads none of them
			if k > 0 {
				pa, pa2, pb = base(a, (k-1)*step+1), base(a2, (k-1)*step+1), base(b, k*n)
			}
			gemmTileAsm(&o[0], p2, pa, pa2, pb, n, k, step, load, wide)
		},
		dotCols: func(o, a, bt []float64, stride int) {
			n, k := len(o), len(a)
			if n == 0 || k == 0 || n%4 != 0 || stride < n {
				panic("tensor: dotCols needs a non-empty a and a positive multiple of 4 columns within the stride")
			}
			dotColsAsm(&o[0], n, &a[0], k, &bt[:(k-1)*stride+n][0], stride, wide)
		},
		transpose: func(out, m []float64, rows, cols int) (int, int) {
			edge := 4
			if wide {
				edge = 8
			}
			r, c := rows&^(edge-1), cols&^(edge-1)
			if r > 0 && c > 0 {
				n := rows * cols
				transposeAsm(base(out, n), base(m, n), rows, cols, wide)
			}
			return r, c
		},
		simdRowOps: asmRowOps(wide),
	}
}
