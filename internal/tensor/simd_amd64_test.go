package tensor

import "testing"

func init() {
	if kernelPath(cpuFeatures()) == "avx512" {
		avx2Loops = loopSets["avx2"]
	}
}

// TestKernelPath pins the run-time choice of loop set: each instruction set
// needs its CPUID bit and, through XCR0, the OS saving its registers.
func TestKernelPath(t *testing.T) {
	const (
		ecx1  = osxsave | avx
		ebx7  = avx2 | avx512f
		xcr0  = ymmState | zmmState | 1 // x87 state is always saved
		leaf7 = 7
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      string
	}{
		{"the full set", leaf7, ecx1, ebx7, xcr0, "avx512"},
		{"a higher max leaf", 0x1b, ecx1, ebx7, xcr0, "avx512"},
		{"AVX512F, but XCR0 without the opmask/ZMM bits", leaf7, ecx1, ebx7, ymmState | 1, "avx2"},
		{"AVX512F, but XCR0 without ZMM16-31", leaf7, ecx1, ebx7, xcr0 &^ (1 << 7), "avx2"},
		{"AVX2 only", leaf7, ecx1, avx2, xcr0, "avx2"},
		{"AVX512F without AVX2", leaf7, ecx1, avx512f, xcr0, "generic"},
		{"AVX2 without OSXSAVE", leaf7, avx, ebx7, xcr0, "generic"},
		{"AVX2 without AVX", leaf7, osxsave, ebx7, xcr0, "generic"},
		{"XCR0 without YMM state", leaf7, ecx1, ebx7, 0b11 | zmmState, "generic"},
		{"max leaf < 7", 6, ecx1, ebx7, xcr0, "generic"},
		{"nothing", 0, 0, 0, 0, "generic"},
	} {
		if got := kernelPath(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: kernelPath(%#x, %#x, %#x, %#x) = %q, want %q", c.name, c.maxLeaf, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
	if got, want := loopsName(hostSIMD), kernelPath(cpuFeatures()); got != want {
		t.Errorf("init installed the %q loops, but this CPU reads as %q", got, want)
	}
}
