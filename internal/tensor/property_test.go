package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fedpkd/internal/stats"
)

// Property-based tests over randomized shapes and seeds: the algebraic
// identities that tie the three kernel orientations together, plus the
// aliasing guards on the *Into variants.

// propEps absorbs the reduction-order differences between the two sides of
// each identity; the operands are O(1) gaussians over dims <= 24, so 1e-10
// is generous.
const propEps = 1e-10

// TestPropertyTransposeOfProduct: (AB)ᵀ == BᵀAᵀ.
func TestPropertyTransposeOfProduct(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		m, k, n := 1+r.IntN(24), 1+r.IntN(24), 1+r.IntN(24)
		a := Randn(r, m, k, 1)
		b := Randn(r, k, n, 1)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return left.Equal(right, propEps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTNMatchesExplicitTranspose: MatMulTN(A,B) == MatMul(Aᵀ,B).
func TestPropertyTNMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		k, m, n := 1+r.IntN(24), 1+r.IntN(24), 1+r.IntN(24)
		a := Randn(r, k, m, 1)
		b := Randn(r, k, n, 1)
		return MatMulTN(a, b).Equal(MatMul(Transpose(a), b), propEps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNTMatchesExplicitTranspose: MatMulNT(A,B) == MatMul(A,Bᵀ).
func TestPropertyNTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		m, k, n := 1+r.IntN(24), 1+r.IntN(24), 1+r.IntN(24)
		a := Randn(r, m, k, 1)
		b := Randn(r, n, k, 1)
		return MatMulNT(a, b).Equal(MatMul(a, Transpose(b)), propEps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDoubleTranspose: (Aᵀ)ᵀ == A exactly.
func TestPropertyDoubleTranspose(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		m, n := 1+r.IntN(40), 1+r.IntN(40)
		a := Randn(r, m, n, 1)
		return bitsEqual(Transpose(Transpose(a)), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// kernelPathsAgree is the property behind TestPropertyKernelPathsBitIdentical
// and FuzzKernelPaths: with the operand family, the destination contents and
// the worker count drawn from seed, every kernel gives the oracle's bits on
// every kernel path this host has.
func kernelPathsAgree(seed uint64, m, k, n int) error {
	rng := stats.NewRNG(seed)
	gen := operandModes[rng.IntN(len(operandModes))].gen
	workers := 1 + rng.IntN(4)
	dst := eqOperands(seed+2, m, n)
	for _, kernel := range pathCases {
		a, b := kernel.operands(gen, seed, m, k, n)
		want := oracle.run(kernel.into, dst, a, b)
		for _, loops := range []*simdLoops{nil, hostSIMD} {
			if got := (launch{loops, workers}).run(kernel.into, dst, a, b); !bitsEqual(got, want) {
				return fmt.Errorf("%s %dx%dx%d seed %d, %d workers, loops %v: not bit-identical to the serial pure-Go kernel",
					kernel.name, m, k, n, seed, workers, loops != nil)
			}
		}
	}
	return nil
}

// TestPropertyKernelPathsBitIdentical draws shapes at random from a fixed
// seed, so the same 150 cases run everywhere: the grid in equivalence_test.go
// is where a tail is guaranteed to be hit, this is where an interaction
// nobody listed can be.
func TestPropertyKernelPathsBitIdentical(t *testing.T) {
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		if err := kernelPathsAgree(uint64(seed), 1+r.IntN(40), 1+r.IntN(70), 1+r.IntN(70)); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// FuzzKernelPaths lets the fuzzer pick the shape (empty dimensions and
// reductions past kTileNN included) and the seed everything else is drawn
// from. `make fuzz` runs it; plain `go test` replays the seeds below.
func FuzzKernelPaths(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint16(48), uint8(48))
	f.Add(uint64(2), uint8(18), uint16(257), uint8(10))
	f.Add(uint64(3), uint8(3), uint16(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, m uint8, k uint16, n uint8) {
		if err := kernelPathsAgree(seed, int(m%48), int(k%300), int(n%80)); err != nil {
			t.Fatal(err)
		}
	})
}

// mustPanic runs fn and reports an error unless it panicked.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", name)
		}
	}()
	fn()
}

// TestAliasedIntoPanics: every *Into variant must refuse a destination that
// shares storage with an operand — the kernels read the inputs while
// writing the output, so an aliased call would corrupt the product
// silently.
func TestAliasedIntoPanics(t *testing.T) {
	rng := stats.NewRNG(3)
	sq := Randn(rng, 6, 6, 1) // square, so every orientation shape-checks
	other := Randn(rng, 6, 6, 1)
	mustPanic(t, "MatMulInto/out=a", func() { MatMulInto(sq, sq, other) })
	mustPanic(t, "MatMulInto/out=b", func() { MatMulInto(sq, other, sq) })
	mustPanic(t, "MatMulTNInto/out=a", func() { MatMulTNInto(sq, sq, other) })
	mustPanic(t, "MatMulTNInto/out=b", func() { MatMulTNInto(sq, other, sq) })
	mustPanic(t, "MatMulTNAccInto/out=a", func() { MatMulTNAccInto(sq, sq, other) })
	mustPanic(t, "MatMulNTInto/out=a", func() { MatMulNTInto(sq, sq, other) })
	mustPanic(t, "MatMulNTInto/out=b", func() { MatMulNTInto(sq, other, sq) })
	mustPanic(t, "TransposeInto/out=m", func() { TransposeInto(sq, sq) })

	// A FromSlice view over the same backing array is aliasing too.
	view := FromSlice(6, 6, sq.Data)
	mustPanic(t, "MatMulInto/view", func() { MatMulInto(view, sq, other) })
}

// TestEnsure pins the buffer-reuse primitive: capacity reuse keeps the
// backing array, growth allocates, and the shape always comes out right.
func TestEnsure(t *testing.T) {
	m := Ensure(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Ensure(nil) shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	backing := &m.Data[0]
	m2 := Ensure(m, 2, 5) // 10 <= cap(12): must reuse
	if m2 != m || &m2.Data[0] != backing {
		t.Error("Ensure must reuse capacity in place")
	}
	if m2.Rows != 2 || m2.Cols != 5 || len(m2.Data) != 10 {
		t.Errorf("Ensure reuse shape = %dx%d len %d", m2.Rows, m2.Cols, len(m2.Data))
	}
	m3 := Ensure(m2, 10, 10) // 100 > cap: must allocate
	if m3 == m2 {
		t.Error("Ensure must allocate when capacity is insufficient")
	}
	if m3.Rows != 10 || m3.Cols != 10 {
		t.Errorf("Ensure grow shape = %dx%d", m3.Rows, m3.Cols)
	}
}
