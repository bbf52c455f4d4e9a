package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fedpkd/internal/stats"
)

// Satellite suite for the NT product: numerical equivalence to the naive
// oracle and to the transpose+NN composition, bit-identity under concurrent
// callers, one reduction shape at every operand size, and allocation-freedom
// of the bᵀ pack the simd dot loops read. The TestMatMulF32* tests at the end
// pin the NN product.

// TestPackedNTMatchesNaive checks NT against the retained naive NT reference
// with a tight epsilon: dotSplit2 splits the sum two ways, so bit equality
// with the naive loop is not required — numerical agreement is.
func TestPackedNTMatchesNaive(t *testing.T) {
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
				t.Errorf("NT diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
			}
		})
	}
}

// TestPackedNTIsTransposePlusNN: NT agrees with materializing bᵀ and running
// the NN kernel, within epsilon — the two group the reduction differently.
func TestPackedNTIsTransposePlusNN(t *testing.T) {
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		a := eqOperands(uint64(500+si), m, k)
		b := eqOperands(uint64(501+si), n, k)
		want := dirty(m, n)
		MatMulInto(want, a, Transpose(b))
		got := dirty(m, n)
		MatMulNTInto(got, a, b)
		if !got.Equal(want, 1e-12) {
			t.Errorf("%dx%dx%d: NT diverged from transpose+NN\n got  %v\n want %v", m, k, n, got.Data, want.Data)
		}
	}
}

// TestPackedNTParallelBitIdentical holds NT to the determinism contract
// under concurrency: for every shape and kernel path, w goroutines issuing
// the product at once (w0: as many as GOMAXPROCS), each packing its own bᵀ
// from the shared scratch arena, must each get the pure-Go oracle's bits.
func TestPackedNTParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 4, 7} {
		callers := workers
		if callers == 0 {
			callers = runtime.GOMAXPROCS(0)
		}
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := eqOperands(uint64(600+si), m, k)
				b := eqOperands(uint64(601+si), n, k)
				dst := dirty(m, n)
				want := oracle(MatMulNTInto, dst, a, b)
				onEachPath(t, func(t *testing.T) {
					checkCallers(t, want, runCallers(simd, callers, MatMulNTInto, dst, a, b))
				})
			})
		}
	}
}

// TestPackedNTThresholdContract: NT's bits do not depend on the operand size.
// At and above 2^18 multiply-adds, as below, every element equals dotSplit2
// of its row of a and its row of b, on every kernel path.
func TestPackedNTThresholdContract(t *testing.T) {
	rng := stats.NewRNG(42)
	for _, s := range [][3]int{{64, 64, 64}, {80, 80, 80}, {128, 48, 100}} {
		m, k, n := s[0], s[1], s[2]
		a := Randn(rng, m, k, 1)
		b := Randn(rng, n, k, 1)
		for _, loops := range pathLoops() {
			got := runCallers(loops, 1, MatMulNTInto, dirty(m, n), a, b)[0]
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if want := dotSplit2(a.Row(i), b.Row(j)); math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("%dx%dx%d on %s loops: element (%d,%d) = %v, dotSplit2 gives %v",
							m, k, n, loopsName(loops), i, j, got.At(i, j), want)
					}
				}
			}
		}
	}
}

// TestPackedNTAllocFree proves the bᵀ pack stays on the arena: after warmup,
// a 128-row NT product performs zero allocations per operation.
func TestPackedNTAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	rng := stats.NewRNG(3)
	a := Randn(rng, 128, 128, 1)
	b := Randn(rng, 128, 128, 1)
	out := New(128, 128)
	MatMulNTInto(out, a, b) // warm the scratch arena
	allocs := testing.AllocsPerRun(20, func() {
		MatMulNTInto(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("NT steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatMulF32MatchesFloat64 pins the NN product at every grid shape:
// within a tight epsilon of the naive reference, and the allocating form
// bit-identical to MatMulInto.
func TestMatMulF32MatchesFloat64(t *testing.T) {
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

// TestMatMulF32ParallelBitIdentical holds the NN product to the determinism
// contract under 2, 4 and 7 concurrent callers.
func TestMatMulF32ParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := eqOperands(uint64(800+si), m, k)
				b := eqOperands(uint64(801+si), k, n)
				want := dirty(m, n)
				MatMulInto(want, a, b)
				checkCallers(t, want, runCallers(simd, workers, MatMulInto, dirty(m, n), a, b))
			})
		}
	}
}

// TestMatMulF32AllocFree: the NN product allocates nothing at steady state.
func TestMatMulF32AllocFree(t *testing.T) {
	rng := stats.NewRNG(5)
	a := Randn(rng, 48, 48, 1)
	b := Randn(rng, 48, 48, 1)
	out := New(48, 48)
	MatMulInto(out, a, b)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("NN product allocates %.1f objects/op, want 0", allocs)
	}
}
