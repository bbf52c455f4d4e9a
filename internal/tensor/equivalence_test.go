package tensor

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"fedpkd/internal/stats"
)

// The equivalence suite: the blocked kernels must be BIT-IDENTICAL to the
// pure-Go kernel on every kernel path (the simd inner loops included) and
// under any number of concurrent callers — that is the invariant the
// fixed-seed determinism tests of internal/core and internal/baselines, and
// every golden, stand on — and numerically equal (tight epsilon) to the
// retained naive serial references from the seed, whose reduction grouping
// differs.

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
// installed for this CPU, and "avx2" the AVX2 loops where init installed
// wider ones.
var kernelPaths = []string{"generic", "simd", "avx2"}

// hostSIMD is what package init installed, captured before any test swaps it
// (in TestMain: package-level initializers run before init functions).
var hostSIMD *simdLoops

// avx2Loops is the AVX2 loop set when this CPU runs it but init installed a
// wider one, else nil; simd_amd64_test.go sets it.
var avx2Loops *simdLoops

func TestMain(m *testing.M) {
	hostSIMD = simd
	os.Exit(m.Run())
}

// pathLoops returns the loop set of every kernel path this host runs, the
// pure-Go loops (nil) first.
func pathLoops() []*simdLoops {
	loops := []*simdLoops{nil}
	for _, l := range []*simdLoops{hostSIMD, avx2Loops} {
		if l != nil {
			loops = append(loops, l)
		}
	}
	return loops
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
	case "avx2":
		if avx2Loops == nil {
			tb.Skip("init installed the AVX2 loops or none: the simd path covers this CPU")
		}
		simd = avx2Loops
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

// runCallers issues into(out, a, b) from callers goroutines at once on the
// given inner loops, as fl.ForEachClient's clients issue products: they share
// a, b and the scratch arena, and each writes its own out, starting as a copy
// of dst. It returns every caller's result.
func runCallers(loops *simdLoops, callers int, into func(out, a, b *Matrix), dst, a, b *Matrix) []*Matrix {
	old := simd
	defer func() { simd = old }()
	simd = loops
	outs := make([]*Matrix, callers)
	start := make(chan struct{}) // released at once, so the calls overlap
	var wg sync.WaitGroup
	for i := range outs {
		outs[i] = dst.Clone()
		wg.Add(1)
		go func(out *Matrix) {
			defer wg.Done()
			<-start
			into(out, a, b)
		}(outs[i])
	}
	close(start)
	wg.Wait()
	return outs
}

// oracle is the result every kernel path and every concurrent caller must
// match bit for bit: one caller on the pure-Go loops.
func oracle(into func(out, a, b *Matrix), dst, a, b *Matrix) *Matrix {
	return runCallers(nil, 1, into, dst, a, b)[0]
}

// checkCallers fails t unless every caller's result has want's bits.
func checkCallers(t *testing.T, want *Matrix, got []*Matrix) {
	t.Helper()
	for i, g := range got {
		if !bitsEqual(g, want) {
			t.Errorf("caller %d of %d: not bit-identical to the reference\n got  %v\n want %v", i, len(got), g.Data, want.Data)
		}
	}
}

// The grid the kernel paths are compared over: row counts around a full batch
// and the pairing edge, reductions across every 4-group and 2-split tail up
// to one past kTileNN, widths across every lane tail and around one and two
// 16-column tiles.
var (
	gridM = []int{1, 2, 3, 31, 32, 33}
	gridK = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 18, 32, 47, 48, 49, 257}
	gridN = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 47, 48, 49}
)

// reluOperands is a post-ReLU activation pattern aimed at the paired kernels'
// skip decisions: over row pairs (A, C) and 4-groups of columns, a quarter of
// the groups are all-zero in A only, a quarter in C only, a quarter in both.
func reluOperands(seed uint64, rows, cols int) *Matrix {
	return zeroGroups(Randn(stats.NewRNG(seed), rows, cols, 1), false)
}

// zeroGroups writes reluOperands' pattern of zeros into m: +0, or, when
// signed, -0 wherever i+j is odd.
func zeroGroups(m *Matrix, signed bool) *Matrix {
	rows, cols := m.Rows, m.Cols
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			zero := 0.0
			if signed && (i+j)%2 == 1 {
				zero = math.Copysign(0, -1)
			}
			switch (i/2 + j/4) % 4 {
			case 1:
				if i%2 == 0 {
					m.Data[i*cols+j] = zero
				}
			case 2:
				if i%2 == 1 {
					m.Data[i*cols+j] = zero
				}
			case 3:
				m.Data[i*cols+j] = zero
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

// skipOperands is the family the zero skips answer to: reluOperands' all-zero
// groups, half of their zeros -0, set in specialOperands' values. As a, b
// and a MatMulTNAccInto destination, it puts skipped groups and tail rows
// against ±Inf and NaN in b, whose zero products would add a NaN, and
// against -0 in the destination, which adding a +0 would turn into +0.
func skipOperands(seed uint64, rows, cols int) *Matrix {
	return zeroGroups(specialOperands(seed, rows, cols), true)
}

// operandMode is an operand family the path comparison runs over: gen
// builds the operands, dst the destination's starting contents (the
// accumulate kernel adds to them).
type operandMode struct {
	name     string
	gen, dst func(seed uint64, rows, cols int) *Matrix
}

var operandModes = []operandMode{
	{"dense", eqOperands, eqOperands},
	{"relu", reluOperands, eqOperands},
	{"special", specialOperands, eqOperands},
	{"skip", skipOperands, skipOperands},
}

// gridCase is one grid shape's operands and destination, and the oracle's
// result for them.
type gridCase struct {
	m, k, n         int
	a, b, dst, want *Matrix
}

// gridCases builds kernel kc's grid from mode, with the oracle's result for
// every shape, once for all the kernel paths to be compared against it.
func gridCases(kc kernelCase, mode operandMode) []gridCase {
	var cases []gridCase
	for _, m := range gridM {
		for _, k := range gridK {
			for _, n := range gridN {
				seed := uint64(m*100000 + k*100 + n)
				a, b := kc.operands(mode.gen, seed, m, k, n)
				dst := mode.dst(seed+2, m, n)
				cases = append(cases, gridCase{m, k, n, a, b, dst, oracle(kc.into, dst, a, b)})
			}
		}
	}
	return cases
}

// checkGrid requires kernel kc, started from each case's destination
// contents, to give the oracle's bits on every grid shape under the current
// kernel path.
func checkGrid(t *testing.T, kc kernelCase, cases []gridCase) {
	loops := simd
	for _, c := range cases {
		if got := runCallers(loops, 1, kc.into, c.dst, c.a, c.b)[0]; !bitsEqual(got, c.want) {
			t.Fatalf("%dx%dx%d: not bit-identical to the pure-Go kernel\n got  %v\n want %v",
				c.m, c.k, c.n, got.Data, c.want.Data)
		}
	}
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

// TestEquivalenceSerialVsNaive checks the blocked kernels against the
// retained naive references with a tight epsilon: the 4-wide grouping
// reorders the reduction, so exact bit equality with the seed code is not
// required — numerical agreement is.
func TestEquivalenceSerialVsNaive(t *testing.T) {
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
// for every kernel, shape and kernel path, w goroutines issuing the same
// product at once — sharing its operands and the scratch arena, as
// concurrent clients do — must each get the pure-Go oracle's bits. The grid
// subtests repeat the path comparison over every tail of the simd loops and
// over operands built to stress them.
func TestEquivalenceParallelBitIdentical(t *testing.T) {
	for _, callers := range []int{2, 3, 4, 7} {
		for _, kc := range kernelCases {
			for si, shape := range eqShapes {
				m, k, n := shape[0], shape[1], shape[2]
				t.Run(fmt.Sprintf("w%d/%s/%dx%dx%d", callers, kc.name, m, k, n), func(t *testing.T) {
					a, b := kc.operands(eqOperands, uint64(200+si), m, k, n)
					dst := dirty(kc.outShape(m, k, n))
					want := oracle(kc.into, dst, a, b)
					onEachPath(t, func(t *testing.T) {
						checkCallers(t, want, runCallers(simd, callers, kc.into, dst, a, b))
					})
				})
			}
		}
	}
	for _, kc := range kernelCases {
		for _, mode := range operandModes {
			t.Run(fmt.Sprintf("grid/%s/%s", kc.name, mode.name), func(t *testing.T) {
				cases := gridCases(kc, mode)
				onEachPath(t, func(t *testing.T) { checkGrid(t, kc, cases) })
			})
		}
	}
}

// TestEquivalenceAccIntoBitIdentical covers the fused accumulate kernel: on
// every kernel path, one caller and four concurrent callers of
// MatMulTNAccInto must agree bitwise with the pure-Go kernel, which must
// equal out0 + aᵀb within epsilon.
func TestEquivalenceAccIntoBitIdentical(t *testing.T) {
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(300+si), k, m)
			b := eqOperands(uint64(301+si), k, n)
			init := eqOperands(uint64(302+si), m, n)

			serial := oracle(MatMulTNAccInto, init, a, b)
			want := dirty(m, n)
			refMatMulTNInto(want, a, b)
			want.Add(init)
			if !serial.Equal(want, 1e-12) {
				t.Errorf("acc kernel diverged from init + aᵀb\n got  %v\n want %v", serial.Data, want.Data)
			}
			onEachPath(t, func(t *testing.T) {
				for _, callers := range []int{1, 4} {
					checkCallers(t, serial, runCallers(simd, callers, MatMulTNAccInto, init, a, b))
				}
			})
		})
	}
	for _, mode := range operandModes {
		t.Run("grid/"+mode.name, func(t *testing.T) {
			cases := gridCases(accCase, mode)
			onEachPath(t, func(t *testing.T) { checkGrid(t, accCase, cases) })
		})
	}
}

// countedLoops returns loops with every entry wrapped to count its calls into
// calls, under the name of its field.
func countedLoops(loops *simdLoops, calls map[string]int) *simdLoops {
	c := *loops
	c.tile = func(o, o2, a, a2, b []float64, k, step int, load bool) {
		calls["tile"]++
		loops.tile(o, o2, a, a2, b, k, step, load)
	}
	c.dotCols = func(o, a, bt []float64, stride int) {
		calls["dotCols"]++
		loops.dotCols(o, a, bt, stride)
	}
	c.transpose = func(out, m []float64, rows, cols int) (int, int) {
		calls["transpose"]++
		return loops.transpose(out, m, rows, cols)
	}
	c.adam = func(p, m, v, g []float64, k AdamCoeffs) {
		calls["adam"]++
		loops.adam(p, m, v, g, k)
	}
	c.colSumSq = func(sum, sumSq, x, bias []float64, rows int) {
		calls[withBias("colSumSq", bias)]++
		loops.colSumSq(sum, sumSq, x, bias, rows)
	}
	c.bnApply = func(out, xhat, x, bias, mean, invStd, gamma, beta []float64, rows int, relu bool) {
		name := withBias("bnApply", bias)
		if relu {
			name += "+relu"
		}
		calls[name]++
		loops.bnApply(out, xhat, x, bias, mean, invStd, gamma, beta, rows, relu)
	}
	c.bnGradSums = func(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma []float64, rows int) {
		calls["bnGradSums"]++
		loops.bnGradSums(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma, rows)
	}
	c.bnGradInput = func(dx, dout, xhat, gamma, sumD, sumDX, invStd []float64, rows int, m, invM float64) {
		calls["bnGradInput"]++
		loops.bnGradInput(dx, dout, xhat, gamma, sumD, sumDX, invStd, rows, m, invM)
	}
	c.relu = func(out, x []float64) {
		calls["relu"]++
		loops.relu(out, x)
	}
	c.reluGrad = func(dx, dout, y []float64) {
		calls["reluGrad"]++
		loops.reluGrad(dx, dout, y)
	}
	c.add = func(dst, a, b []float64, relu bool) {
		if relu {
			calls["add+relu"]++
		} else {
			calls["add"]++
		}
		loops.add(dst, a, b, relu)
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

// withBias names a loop's fused form, name+"+bias", when it got a bias.
func withBias(name string, bias []float64) string {
	if bias != nil {
		return name + "+bias"
	}
	return name
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
			{"MatMulInto", func() { MatMulInto(New(5, 8), x, w) }, "tile"},
			{"MatMulTNInto", func() { MatMulTNInto(New(8, 8), x, dy) }, "tile"},
			{"MatMulTNAccInto", func() { MatMulTNAccInto(New(8, 8), x, dy) }, "tile"},
			{"MatMulNTInto", func() { MatMulNTInto(New(5, 8), dy, w) }, "dotCols"},
			{"MatMulNTInto/pack", func() { MatMulNTInto(New(5, 8), dy, w) }, "transpose"},
			{"TransposeInto", func() { TransposeInto(New(8, 8), w) }, "transpose"},
			{"AdamStep", func() { AdamStep(v(), v(), v(), v(), testAdam) }, "adam"},
			{"AddColSumSq", func() { AddColSumSq(v(), v(), x, nil) }, "colSumSq"},
			{"AddColSumSq/bias", func() { AddColSumSq(v(), v(), x, v()) }, "colSumSq+bias"},
			{"BatchNormApply", func() { BatchNormApply(New(5, 8), nil, x, nil, v(), v(), v(), v(), false) }, "bnApply"},
			{"BatchNormApply/relu", func() { BatchNormApply(New(5, 8), New(5, 8), x, nil, v(), v(), v(), v(), true) }, "bnApply+relu"},
			{"BatchNormApply/bias/relu", func() { BatchNormApply(New(5, 8), nil, x, v(), v(), v(), v(), v(), true) }, "bnApply+bias+relu"},
			{"BatchNormGradSums", func() { BatchNormGradSums(v(), v(), v(), v(), dy, x, v()) }, "bnGradSums"},
			{"BatchNormGradInput", func() { BatchNormGradInput(New(5, 8), dy, x, v(), v(), v(), v()) }, "bnGradInput"},
			{"ReLUInto", func() { ReLUInto(v(), v()) }, "relu"},
			{"ReLUGradInto", func() { ReLUGradInto(v(), v(), v()) }, "reluGrad"},
			{"AddInto", func() { AddInto(v(), v(), v()) }, "add"},
			{"AddReLUInto", func() { AddReLUInto(v(), v(), v()) }, "add+relu"},
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

// TestEquivalenceTranspose checks the blocked transpose on every kernel path,
// from one caller and from four at once, against the seed's strided walk — a
// pure permutation, so exact equality. The shapes sit on both sides of the
// register blocks' edges, 4 (avx2) and 8 (avx512), and include the Dense
// weights whose bᵀ pack MatMulNTInto makes on every step.
func TestEquivalenceTranspose(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {33, 65}, {70, 3}, {0, 4}, {4, 0}, {64, 64},
		{3, 4}, {4, 4}, {5, 5}, {7, 7}, {8, 8}, {9, 9}, {15, 15}, {16, 16}, {17, 17},
		{7, 16}, {16, 9}, {8, 17}, {15, 8}, {48, 48}, {48, 10}, {10, 48}, {32, 48}}
	transposeInto := func(out, m, _ *Matrix) { TransposeInto(out, m) }
	for _, callers := range []int{1, 4} {
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			t.Run(fmt.Sprintf("w%d/%dx%d", callers, r, c), func(t *testing.T) {
				m := eqOperands(uint64(10*r+c), r, c)
				want := dirty(c, r)
				refTransposeInto(want, m)
				for _, loops := range pathLoops() {
					got := runCallers(loops, callers, transposeInto, dirty(c, r), m, nil)
					for i, g := range got {
						if !exactBitsEqual(g, want) {
							t.Errorf("%s loops, caller %d of %d: not the strided walk's bits\n got  %v\n want %v",
								loopsName(loops), i, callers, g.Data, want.Data)
						}
					}
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
// that is 8- but not 16-, 32- or 64-byte aligned, the case unaligned vector
// loads and stores exist for.
func (g *guards) embed(name string, m *Matrix, pre int) *Matrix {
	const post = 8 // one 8-lane vector past the end
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
				transposePanel(bt, b)
			}
			gemmNTPanel(out, a, b, bt)
		}
		for _, kernel := range append(pathCases[:len(pathCases):len(pathCases)], ntPanel) {
			for _, m := range gridM {
				for _, k := range gridK {
					for _, n := range gridN {
						seed := uint64(m*100000 + k*100 + n)
						a, b := kernel.operands(eqOperands, seed, m, k, n)
						dst := eqOperands(seed+2, m, n)
						want := oracle(kernel.into, dst, a, b)
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
