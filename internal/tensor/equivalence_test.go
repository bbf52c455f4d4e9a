package tensor

import (
	"fmt"
	"math"
	"os"
	"testing"

	"fedpkd/internal/stats"
)

// The equivalence suite: blocked/parallel kernels must be BIT-IDENTICAL to
// a single-threaded whole-range launch of the pure-Go kernel at every worker
// count and on every kernel path (the simd inner loops included) — that is
// the invariant the fixed-seed determinism tests of internal/core and
// internal/baselines, and every golden, stand on — and numerically equal
// (tight epsilon) to the retained naive serial references from the seed,
// whose reduction grouping differs.

// eqShapes spans the shapes the ISSUE calls out: scalars, row/column
// vectors, tall-skinny, wide-short, non-tile-multiples (including k crossing
// the kTileNN boundary and j crossing jTileNT), and zero-row/zero-col edge
// cases. Each entry is (m, k, n) for out = (m x k) · (k x n).
var eqShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 1},
	{1, 1, 7},
	{5, 1, 3},
	{1, 5, 9},
	{64, 4, 3},   // tall-skinny
	{3, 50, 70},  // wide-short, j crosses jTileNT
	{65, 33, 17}, // non-tile-multiple everywhere
	{33, 300, 5}, // k crosses kTileNN
	{0, 3, 4},    // zero rows
	{4, 0, 5},    // zero reduction dim
	{4, 5, 0},    // zero cols
	{8, 8, 8},
}

// eqOperands builds operands with exact zeros sprinkled in (to exercise the
// kernels' zero-skip paths) for a given shape and seed.
func eqOperands(seed uint64, rows, cols int) *Matrix {
	rng := stats.NewRNG(seed)
	m := Randn(rng, rows, cols, 1)
	for i := range m.Data {
		if rng.Float64() < 0.3 {
			m.Data[i] = 0
		}
	}
	return m
}

// bitsEqual reports whether two matrices are identical down to the last bit.
// A NaN equals any NaN: which operand's payload an add of two NaNs keeps is
// the one thing instruction selection may change, and no result depends on it.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// kernelPaths is the suite's kernel-path axis: "generic" is the pure-Go inner
// loops every platform has, "simd" whatever data-parallel loops package init
// installed for this CPU.
var kernelPaths = []string{"generic", "simd"}

// hostSIMD is what package init installed, captured before any test swaps it
// (in TestMain: package-level initializers run before init functions).
var hostSIMD *simdLoops

func TestMain(m *testing.M) {
	hostSIMD = simd
	os.Exit(m.Run())
}

// useKernelPath selects a kernel path until the test (or benchmark) ends.
func useKernelPath(tb testing.TB, path string) {
	tb.Helper()
	old := simd
	tb.Cleanup(func() { simd = old })
	switch path {
	case "generic":
		simd = nil
	case "simd":
		if hostSIMD == nil {
			tb.Skip("no simd inner loops for this CPU: the generic path is the only one")
		}
		simd = hostSIMD
	default:
		tb.Fatalf("unknown kernel path %q", path)
	}
}

// onEachPath runs fn once per kernel path, as subtests named after the path.
func onEachPath(t *testing.T, fn func(t *testing.T)) {
	for _, path := range kernelPaths {
		t.Run(path, func(t *testing.T) {
			useKernelPath(t, path)
			fn(t)
		})
	}
}

// launch is one way to run a kernel: which inner loops, how many workers
// (anything but one forces the fan-out however small the shape; zero is the
// GOMAXPROCS default).
type launch struct {
	loops   *simdLoops
	workers int
}

// oracle is the launch every other one must match bit for bit: the pure-Go
// loops over one whole-range panel.
var oracle = launch{nil, 1}

// run returns into(out, a, b) under l, with out starting as a copy of dst.
func (l launch) run(into func(out, a, b *Matrix), dst, a, b *Matrix) *Matrix {
	oldLoops, oldOps := simd, minParallelOps
	defer func() {
		simd, minParallelOps = oldLoops, oldOps
		SetWorkers(0)
	}()
	simd = l.loops
	if l.workers != 1 {
		minParallelOps = 0
	}
	SetWorkers(l.workers)
	out := dst.Clone()
	into(out, a, b)
	return out
}

// The grid the kernel paths are compared over: row counts around a full batch
// and the pairing edge, reductions across every 4-group and 2-split tail up
// to one past kTileNN, widths across every lane tail and the 16-column block.
var (
	gridM = []int{1, 2, 3, 31, 32, 33}
	gridK = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 18, 32, 47, 48, 49, 257}
	gridN = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 47, 48, 49}
)

// reluOperands is a post-ReLU activation pattern aimed at the paired kernels'
// skip decisions: over row pairs (A, C) and 4-groups of columns, a quarter of
// the groups are all-zero in A only, a quarter in C only, a quarter in both.
func reluOperands(seed uint64, rows, cols int) *Matrix {
	m := Randn(stats.NewRNG(seed), rows, cols, 1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch (i/2 + j/4) % 4 {
			case 1:
				if i%2 == 0 {
					m.Data[i*cols+j] = 0
				}
			case 2:
				if i%2 == 1 {
					m.Data[i*cols+j] = 0
				}
			case 3:
				m.Data[i*cols+j] = 0
			}
		}
	}
	return m
}

// specialOperands mixes signed zeros, infinities, subnormals, near-overflow
// magnitudes and signed NaNs into gaussian data, so products hit 0·Inf, Inf-Inf,
// gradual underflow and overflow in both paths.
func specialOperands(seed uint64, rows, cols int) *Matrix {
	rng := stats.NewRNG(seed)
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-309,
		math.MaxFloat64, -1e308, math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), // NaN of both signs
	}
	m := Randn(rng, rows, cols, 1)
	for i := range m.Data {
		if rng.Float64() < 0.4 {
			m.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	return m
}

// operandModes are the operand families the path comparison runs over.
var operandModes = []struct {
	name string
	gen  func(seed uint64, rows, cols int) *Matrix
}{
	{"dense", eqOperands},
	{"relu", reluOperands},
	{"special", specialOperands},
}

// checkGrid requires kernel kc, started from non-zero destination contents,
// to give the oracle's bits on every grid shape under the current kernel
// path, both serially and fanned out across three workers.
func checkGrid(t *testing.T, kc kernelCase, gen func(seed uint64, rows, cols int) *Matrix) {
	loops := simd
	for _, m := range gridM {
		for _, k := range gridK {
			for _, n := range gridN {
				seed := uint64(m*100000 + k*100 + n)
				a, b := kc.operands(gen, seed, m, k, n)
				dst := eqOperands(seed+2, m, n)
				want := oracle.run(kc.into, dst, a, b)
				for _, workers := range []int{1, 3} {
					if got := (launch{loops, workers}).run(kc.into, dst, a, b); !bitsEqual(got, want) {
						t.Fatalf("%dx%dx%d, %d workers: not bit-identical to the serial pure-Go kernel\n got  %v\n want %v",
							m, k, n, workers, got.Data, want.Data)
					}
				}
			}
		}
	}
}

// forceParallel forces the pool path for arbitrarily small shapes and
// restores the threshold and worker width afterwards.
func forceParallel(tb testing.TB, workers int) {
	tb.Helper()
	oldOps := minParallelOps
	minParallelOps = 0
	SetWorkers(workers)
	tb.Cleanup(func() {
		minParallelOps = oldOps
		SetWorkers(0)
	})
}

// dirty returns a shape-matched destination full of garbage, so the tests
// also prove the Into kernels fully overwrite stale contents.
func dirty(rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Fill(math.Pi * 1e9)
	return m
}

type kernelCase struct {
	name string
	// operands builds (a, b) for output shape (m x n) and reduction length
	// k from gen, in the layout this orientation takes them.
	operands func(gen func(seed uint64, rows, cols int) *Matrix, seed uint64, m, k, n int) (a, b *Matrix)
	ref      func(out, a, b *Matrix)
	into     func(out, a, b *Matrix)
	outShape func(m, k, n int) (int, int)
}

var kernelCases = []kernelCase{
	{
		name: "MatMul",
		operands: func(gen func(uint64, int, int) *Matrix, seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return gen(seed, m, k), gen(seed+1, k, n)
		},
		ref:      refMatMulInto,
		into:     MatMulInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
	{
		name: "MatMulTN",
		operands: func(gen func(uint64, int, int) *Matrix, seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return Transpose(gen(seed, m, k)), gen(seed+1, k, n)
		},
		ref:      refMatMulTNInto,
		into:     MatMulTNInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
	{
		name: "MatMulNT",
		operands: func(gen func(uint64, int, int) *Matrix, seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return gen(seed, m, k), Transpose(gen(seed+1, k, n))
		},
		ref:      refMatMulNTInto,
		into:     MatMulNTInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
}

// accCase is the TN kernel's fused-accumulate form: same operand layout, but
// the destination is added to, so it sits out kernelCases' comparison with
// the naive references (which starts from garbage) and has no ref.
var accCase = kernelCase{
	name:     "MatMulTNAcc",
	operands: kernelCases[1].operands,
	into:     MatMulTNAccInto,
	outShape: kernelCases[1].outShape,
}

// pathCases are the entry points the kernel-path comparisons cover.
var pathCases = append(kernelCases[:len(kernelCases):len(kernelCases)], accCase)

// TestEquivalenceSerialVsNaive checks the blocked kernels (single worker,
// whole-range panel) against the retained naive references with a tight
// epsilon: the 4-wide grouping reorders the reduction, so exact bit equality
// with the seed code is not required — numerical agreement is.
func TestEquivalenceSerialVsNaive(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	for _, kc := range kernelCases {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("%s/%dx%dx%d", kc.name, m, k, n), func(t *testing.T) {
				a, b := kc.operands(eqOperands, uint64(100+si), m, k, n)
				or, oc := kc.outShape(m, k, n)
				want := dirty(or, oc)
				kc.ref(want, a, b)
				onEachPath(t, func(t *testing.T) {
					got := dirty(or, oc)
					kc.into(got, a, b)
					if !got.Equal(want, 1e-12) {
						t.Errorf("blocked kernel diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
					}
				})
			})
		}
	}
}

// TestEquivalenceParallelBitIdentical is the load-bearing determinism test:
// for every kernel, shape, worker count and kernel path, the pooled parallel
// launch must be bit-identical to the serial (one-panel) launch of the
// pure-Go kernel. The grid subtests repeat that over every tail of the simd
// loops and over operands built to stress them.
func TestEquivalenceParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7} {
		for _, kc := range kernelCases {
			for si, shape := range eqShapes {
				m, k, n := shape[0], shape[1], shape[2]
				t.Run(fmt.Sprintf("w%d/%s/%dx%dx%d", workers, kc.name, m, k, n), func(t *testing.T) {
					a, b := kc.operands(eqOperands, uint64(200+si), m, k, n)
					dst := dirty(kc.outShape(m, k, n))
					serial := oracle.run(kc.into, dst, a, b)
					onEachPath(t, func(t *testing.T) {
						parallel := launch{simd, workers}.run(kc.into, dst, a, b)
						if !bitsEqual(serial, parallel) {
							t.Errorf("parallel result (w=%d) not bit-identical to serial\n serial   %v\n parallel %v",
								workers, serial.Data, parallel.Data)
						}
					})
				})
			}
		}
	}
	for _, kc := range kernelCases {
		for _, mode := range operandModes {
			t.Run(fmt.Sprintf("grid/%s/%s", kc.name, mode.name), func(t *testing.T) {
				onEachPath(t, func(t *testing.T) { checkGrid(t, kc, mode.gen) })
			})
		}
	}
}

// TestEquivalenceAccIntoBitIdentical covers the fused accumulate kernel: on
// every kernel path, serial and parallel MatMulTNAccInto must agree bitwise
// with the serial pure-Go kernel, which must equal out0 + aᵀb within epsilon.
func TestEquivalenceAccIntoBitIdentical(t *testing.T) {
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(300+si), k, m)
			b := eqOperands(uint64(301+si), k, n)
			init := eqOperands(uint64(302+si), m, n)

			serial := oracle.run(MatMulTNAccInto, init, a, b)
			want := dirty(m, n)
			refMatMulTNInto(want, a, b)
			want.Add(init)
			if !serial.Equal(want, 1e-12) {
				t.Errorf("acc kernel diverged from init + aᵀb\n got  %v\n want %v", serial.Data, want.Data)
			}
			onEachPath(t, func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					if got := (launch{simd, workers}).run(MatMulTNAccInto, init, a, b); !bitsEqual(serial, got) {
						t.Errorf("acc kernel, %d workers: not bit-identical to serial", workers)
					}
				}
			})
		})
	}
	for _, mode := range operandModes {
		t.Run("grid/"+mode.name, func(t *testing.T) {
			onEachPath(t, func(t *testing.T) { checkGrid(t, accCase, mode.gen) })
		})
	}
}

// countedLoops returns loops with every entry wrapped to count its calls into
// calls, under the name of its field (both axpy forms under "axpy4").
func countedLoops(loops *simdLoops, calls map[string]int) *simdLoops {
	c := *loops
	c.axpy4 = func(o, b []float64, a0, a1, a2, a3 float64) {
		calls["axpy4"]++
		loops.axpy4(o, b, a0, a1, a2, a3)
	}
	c.axpy4x2 = func(o, o2, b []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
		calls["axpy4"]++
		loops.axpy4x2(o, o2, b, a0, a1, a2, a3, c0, c1, c2, c3)
	}
	c.dotCols = func(o, a, bt []float64, stride int) {
		calls["dotCols"]++
		loops.dotCols(o, a, bt, stride)
	}
	c.adam = func(p, m, v, g []float64, k AdamCoeffs) {
		calls["adam"]++
		loops.adam(p, m, v, g, k)
	}
	c.colSumSq = func(sum, sumSq, x []float64, rows int) {
		calls["colSumSq"]++
		loops.colSumSq(sum, sumSq, x, rows)
	}
	c.bnApply = func(out, xhat, x, mean, invStd, gamma, beta []float64, rows int) {
		calls["bnApply"]++
		loops.bnApply(out, xhat, x, mean, invStd, gamma, beta, rows)
	}
	c.bnGradSums = func(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma []float64, rows int) {
		calls["bnGradSums"]++
		loops.bnGradSums(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma, rows)
	}
	c.bnGradInput = func(dx, dout, xhat, gamma, sumD, sumDX, invStd []float64, rows int, m, invM float64) {
		calls["bnGradInput"]++
		loops.bnGradInput(dx, dout, xhat, gamma, sumD, sumDX, invStd, rows, m, invM)
	}
	c.relu = func(out, mask, x []float64) {
		calls["relu"]++
		loops.relu(out, mask, x)
	}
	c.mul = func(dst, a, b []float64) {
		calls["mul"]++
		loops.mul(dst, a, b)
	}
	c.add = func(dst, a, b []float64) {
		calls["add"]++
		loops.add(dst, a, b)
	}
	c.addRowVec = func(m, v []float64, rows int) {
		calls["addRowVec"]++
		loops.addRowVec(m, v, rows)
	}
	c.addColSums = func(sums, m []float64, rows int) {
		calls["addColSums"]++
		loops.addColSums(sums, m, rows)
	}
	return &c
}

// TestKernelPathReported: KernelStats.Path names the inner loops in use, and
// a product of each orientation and every row op really goes through them.
// (layers_test.go carries the same proof up to the nn layers.)
func TestKernelPathReported(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		want := "generic"
		calls := map[string]int{}
		if simd != nil {
			want = simd.name
			simd = countedLoops(simd, calls) // useKernelPath's cleanup restores the original
		}
		if got := ReadKernelStats().Path; got != want {
			t.Errorf("KernelStats.Path = %q, want %q", got, want)
		}
		if simd == nil {
			return // a nil loop set cannot have been called
		}
		rng := stats.NewRNG(11)
		x, w, dy := Randn(rng, 5, 8, 1), Randn(rng, 8, 8, 1), Randn(rng, 5, 8, 1)
		v := func() []float64 { return make([]float64, 8) }
		for _, kc := range []struct {
			name string
			run  func()
			loop string
		}{
			{"MatMulInto", func() { MatMulInto(New(5, 8), x, w) }, "axpy4"},
			{"MatMulTNInto", func() { MatMulTNInto(New(8, 8), x, dy) }, "axpy4"},
			{"MatMulNTInto", func() { MatMulNTInto(New(5, 8), dy, w) }, "dotCols"},
			{"AdamStep", func() { AdamStep(v(), v(), v(), v(), testAdam) }, "adam"},
			{"AddColSumSq", func() { AddColSumSq(v(), v(), x) }, "colSumSq"},
			{"BatchNormApply", func() { BatchNormApply(New(5, 8), nil, x, v(), v(), v(), v()) }, "bnApply"},
			{"BatchNormGradSums", func() { BatchNormGradSums(v(), v(), v(), v(), dy, x, v()) }, "bnGradSums"},
			{"BatchNormGradInput", func() { BatchNormGradInput(New(5, 8), dy, x, v(), v(), v(), v()) }, "bnGradInput"},
			{"ReLUInto", func() { ReLUInto(v(), nil, v()) }, "relu"},
			{"MulInto", func() { MulInto(v(), v(), v()) }, "mul"},
			{"AddInto", func() { AddInto(v(), v(), v()) }, "add"},
			{"AddRowVector", func() { New(5, 8).AddRowVector(v()) }, "addRowVec"},
			{"AddColSums", func() { AddColSums(v(), x) }, "addColSums"},
		} {
			before := calls[kc.loop]
			kc.run()
			if calls[kc.loop] == before {
				t.Errorf("%s made no call into the %s %s loop KernelStats reports", kc.name, want, kc.loop)
			}
		}
	})
}

// TestEquivalenceNonIntoMatchesInto pins the allocating wrappers to their
// Into kernels.
func TestEquivalenceNonIntoMatchesInto(t *testing.T) {
	rng := stats.NewRNG(7)
	a := Randn(rng, 9, 13, 1)
	b := Randn(rng, 13, 5, 1)
	out := dirty(9, 5)
	MatMulInto(out, a, b)
	if !bitsEqual(MatMul(a, b), out) {
		t.Error("MatMul != MatMulInto")
	}
	at := Randn(rng, 13, 9, 1)
	out = dirty(9, 5)
	MatMulTNInto(out, at, b)
	if !bitsEqual(MatMulTN(at, b), out) {
		t.Error("MatMulTN != MatMulTNInto")
	}
	bt := Randn(rng, 5, 13, 1)
	out = dirty(9, 5)
	MatMulNTInto(out, a, bt)
	if !bitsEqual(MatMulNT(a, bt), out) {
		t.Error("MatMulNT != MatMulNTInto")
	}
}

// TestEquivalenceTranspose checks the blocked (and parallel) transpose
// against the seed's strided walk — a pure permutation, so exact equality.
func TestEquivalenceTranspose(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {33, 65}, {70, 3}, {0, 4}, {4, 0}, {64, 64}}
	for _, ws := range []int{1, 4} {
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			t.Run(fmt.Sprintf("w%d/%dx%d", ws, r, c), func(t *testing.T) {
				m := eqOperands(uint64(10*r+c), r, c)
				want := dirty(c, r)
				refTransposeInto(want, m)
				if ws == 1 {
					SetWorkers(1)
					defer SetWorkers(0)
				} else {
					forceParallel(t, ws)
				}
				got := dirty(c, r)
				TransposeInto(got, m)
				if !bitsEqual(got, want) {
					t.Errorf("blocked transpose diverged\n got  %v\n want %v", got.Data, want.Data)
				}
				if !bitsEqual(Transpose(m), want) {
					t.Errorf("Transpose wrapper diverged")
				}
			})
		}
	}
}

// guardWord fills the words around every guarded matrix: a NaN with a payload
// no computation produces, compared by bits.
var guardWord = math.Float64frombits(0x7ff8_0bad_c0de_0001)

// guards hands out matrices embedded in larger arrays and remembers the
// bands around them.
type guards struct {
	bands []guardBand
}

type guardBand struct {
	name      string
	buf       []float64
	pre, size int
}

// embed returns a copy of m stored at element offset pre of a fresh array
// whose other words hold guardWord. An odd pre makes the matrix a sub-slice
// that is 8- but not 16- or 32-byte aligned, the case unaligned vector loads
// and stores exist for.
func (g *guards) embed(name string, m *Matrix, pre int) *Matrix {
	const post = 4 // one vector past the end
	buf := make([]float64, pre+len(m.Data)+post)
	for i := range buf {
		buf[i] = guardWord
	}
	copy(buf[pre:], m.Data)
	g.bands = append(g.bands, guardBand{name, buf, pre, len(m.Data)})
	return FromSlice(m.Rows, m.Cols, buf[pre:pre+len(m.Data)])
}

// broken names the first matrix with an overwritten guard word, or "".
func (g *guards) broken() string {
	for _, b := range g.bands {
		for i, v := range b.buf {
			if (i < b.pre || i >= b.pre+b.size) && math.Float64bits(v) != math.Float64bits(guardWord) {
				return fmt.Sprintf("%s (guard word %d of %d, matrix at [%d,%d))", b.name, i, len(b.buf), b.pre, b.pre+b.size)
			}
		}
	}
	return ""
}

// TestKernelGuardBands runs every kernel and row op, on every kernel path and
// grid shape, over operands and destinations that are sub-slices at odd element
// offsets with sentinel words on both sides: results must equal the oracle's
// bits and no sentinel may change. The NT panel is also driven directly with
// a guarded bᵀ pack, the one scratch buffer the simd loops read.
func TestKernelGuardBands(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		var g guards
		// The NT panel itself, handed a guarded bᵀ pack as the dispatcher
		// would hand it a pooled one.
		ntPanel := kernelCases[2]
		ntPanel.name = "gemmNTPanel"
		ntPanel.into = func(out, a, b *Matrix) {
			var bt *Matrix
			if simd != nil && len(b.Data) > 0 {
				bt = g.embed("bt", New(b.Cols, b.Rows), 7)
				transposePanel(bt, b, 0, bt.Rows)
			}
			gemmNTPanel(out, a, b, bt, 0, out.Rows)
		}
		for _, kernel := range append(pathCases[:len(pathCases):len(pathCases)], ntPanel) {
			for _, m := range gridM {
				for _, k := range gridK {
					for _, n := range gridN {
						seed := uint64(m*100000 + k*100 + n)
						a, b := kernel.operands(eqOperands, seed, m, k, n)
						dst := eqOperands(seed+2, m, n)
						want := oracle.run(kernel.into, dst, a, b)
						g.bands = g.bands[:0] // only the run below is under guard
						out := g.embed("out", dst, 5)
						kernel.into(out, g.embed("a", a, 3), g.embed("b", b, 1))
						if !bitsEqual(out, want) {
							t.Fatalf("%s %dx%dx%d: offset operands changed the result\n got  %v\n want %v",
								kernel.name, m, k, n, out.Data, want.Data)
						}
						if name := g.broken(); name != "" {
							t.Fatalf("%s %dx%dx%d: wrote outside %s", kernel.name, m, k, n, name)
						}
					}
				}
			}
		}
		// The row ops, every operand at its own odd offset.
		for _, c := range rowOpCases {
			for _, rows := range gridM {
				for _, cols := range gridN {
					g.bands = g.bands[:0]
					embed := func(i int, m *Matrix) *Matrix { return g.embed(fmt.Sprintf("operand %d", i), m, 2*i+1) }
					if err := rowOpAgrees(c, eqOperands, uint64(rows*1000+cols), rows, cols, embed); err != nil {
						t.Fatal(err)
					}
					if name := g.broken(); name != "" {
						t.Fatalf("%s %dx%d: wrote outside %s", c.name, rows, cols, name)
					}
				}
			}
		}
	})
}
