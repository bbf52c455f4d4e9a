package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/stats"
)

// Satellite suite for the packed-panel NT kernel: numerical equivalence to
// the naive oracle, bit-identity across worker counts, bit-identity to the
// transpose+NN composition the packed path is defined as, the threshold
// contract that keeps training numerics untouched, and allocation-freedom of
// the panel pack. The TestMatMulF32* tests at the end pin the NN product.

// forcePackNT drops the packed-NT threshold to 1 so every non-empty NT
// product takes the packed path, restoring it afterwards.
func forcePackNT(t *testing.T) {
	t.Helper()
	old := minPackNTOps
	minPackNTOps = 1
	t.Cleanup(func() { minPackNTOps = old })
}

// TestPackedNTMatchesNaive checks the packed path (serial, forced for every
// shape) against the retained naive NT reference with a tight epsilon: the
// NN-kernel reduction regroups the sum, so bit equality with the dot kernel
// is not required — numerical agreement is.
func TestPackedNTMatchesNaive(t *testing.T) {
	forcePackNT(t)
	setWorkers(1)
	defer setWorkers(0)
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(400+si), m, k)
			b := eqOperands(uint64(401+si), n, k)
			want := dirty(m, n)
			refMatMulNTInto(want, a, b)
			got := dirty(m, n)
			MatMulNTInto(got, a, b)
			if !got.Equal(want, 1e-12) {
				t.Errorf("packed NT diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
			}
		})
	}
}

// TestPackedNTIsTransposePlusNN pins the packed path's definition: it must
// be BIT-identical to materializing bᵀ and running the NN kernel, because it
// is literally that composition on an arena panel.
func TestPackedNTIsTransposePlusNN(t *testing.T) {
	forcePackNT(t)
	setWorkers(1)
	defer setWorkers(0)
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		if int64(m)*int64(k)*int64(n) == 0 {
			continue // empty products bypass the packed path
		}
		a := eqOperands(uint64(500+si), m, k)
		b := eqOperands(uint64(501+si), n, k)
		want := dirty(m, n)
		MatMulInto(want, a, Transpose(b))
		got := dirty(m, n)
		MatMulNTInto(got, a, b)
		if !bitsEqual(got, want) {
			t.Errorf("%dx%dx%d: packed NT not bit-identical to transpose+NN", m, k, n)
		}
	}
}

// TestPackedNTParallelBitIdentical is the packed path's half of the
// determinism contract: for every shape, worker count (including the
// GOMAXPROCS default) and kernel path, the pooled parallel launch must be
// bit-identical to the serial one-panel launch of the pure-Go kernel.
func TestPackedNTParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 4, 7} {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				forcePackNT(t)
				a := eqOperands(uint64(600+si), m, k)
				b := eqOperands(uint64(601+si), n, k)
				dst := dirty(m, n)
				serial := oracle.run(MatMulNTInto, dst, a, b)
				onEachPath(t, func(t *testing.T) {
					parallel := launch{simd, workers}.run(MatMulNTInto, dst, a, b)
					if !bitsEqual(serial, parallel) {
						t.Errorf("packed NT parallel (w=%d) not bit-identical to serial\n serial   %v\n parallel %v",
							workers, serial.Data, parallel.Data)
					}
				})
			})
		}
	}
}

// TestPackedNTThresholdContract pins the dispatch boundary: below
// minPackNTOps the NT product must be bit-identical to the dot-product
// kernel (the path every training shape takes — this is what keeps goldens
// byte-exact), and at/above the threshold it must be bit-identical to the
// packed composition.
func TestPackedNTThresholdContract(t *testing.T) {
	setWorkers(1)
	defer setWorkers(0)
	rng := stats.NewRNG(42)
	// 64^3 = 2^18 = minPackNTOps exactly: the smallest packed product.
	a := Randn(rng, 64, 64, 1)
	b := Randn(rng, 64, 64, 1)

	packed := dirty(64, 64)
	MatMulNTInto(packed, a, b) // default threshold: ops == 1<<18 takes the packed path
	wantPacked := dirty(64, 64)
	MatMulInto(wantPacked, a, Transpose(b))
	if !bitsEqual(packed, wantPacked) {
		t.Error("ops == minPackNTOps did not take the packed path")
	}

	old := minPackNTOps
	minPackNTOps = math.MaxInt64
	defer func() { minPackNTOps = old }()
	unpacked := dirty(64, 64)
	MatMulNTInto(unpacked, a, b)
	wantDot := dirty(64, 64)
	gemmNTPanel(wantDot, a, b, nil, 0, 64)
	if !bitsEqual(unpacked, wantDot) {
		t.Error("ops < minPackNTOps did not take the dot-product path")
	}
	if !unpacked.Equal(packed, 1e-12) {
		t.Error("packed and dot paths disagree numerically")
	}
}

// TestPackedNTAllocFree proves the panel pack stays on the arena: after
// warmup, the serial packed path performs zero allocations per operation.
func TestPackedNTAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	setWorkers(1)
	defer setWorkers(0)
	rng := stats.NewRNG(3)
	// 80^3 = 512000 >= 1<<18: the packed path at the default threshold.
	a := Randn(rng, 80, 80, 1)
	b := Randn(rng, 80, 80, 1)
	out := New(80, 80)
	MatMulNTInto(out, a, b) // warm the scratch arena
	allocs := testing.AllocsPerRun(20, func() {
		MatMulNTInto(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("packed NT steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatMulF32MatchesFloat64 pins the NN product at every grid shape:
// within a tight epsilon of the naive reference, and the allocating form
// bit-identical to MatMulInto.
func TestMatMulF32MatchesFloat64(t *testing.T) {
	setWorkers(1)
	defer setWorkers(0)
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(700+si), m, k)
			b := eqOperands(uint64(701+si), k, n)
			want := dirty(m, n)
			refMatMulInto(want, a, b)
			got := dirty(m, n)
			MatMulInto(got, a, b)
			if !got.Equal(want, 1e-12) {
				t.Fatalf("NN product diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
			}
			if !bitsEqual(MatMul(a, b), got) {
				t.Error("MatMul != MatMulInto")
			}
		})
	}
}

// TestMatMulF32ParallelBitIdentical holds the NN product to the worker-count
// determinism contract at widths 2, 4 and 7.
func TestMatMulF32ParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := eqOperands(uint64(800+si), m, k)
				b := eqOperands(uint64(801+si), k, n)

				setWorkers(1)
				serial := dirty(m, n)
				MatMulInto(serial, a, b)

				forceParallel(t, workers)
				parallel := dirty(m, n)
				MatMulInto(parallel, a, b)

				if !bitsEqual(serial, parallel) {
					t.Errorf("NN parallel (w=%d) not bit-identical to serial", workers)
				}
			})
		}
	}
}

// TestMatMulF32AllocFree: the serial NN product allocates nothing at steady
// state.
func TestMatMulF32AllocFree(t *testing.T) {
	setWorkers(1)
	defer setWorkers(0)
	rng := stats.NewRNG(5)
	a := Randn(rng, 48, 48, 1)
	b := Randn(rng, 48, 48, 1)
	out := New(48, 48)
	MatMulInto(out, a, b)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("serial NN product allocates %.1f objects/op, want 0", allocs)
	}
}
