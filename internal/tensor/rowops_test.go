package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/stats"
)

// The row-op half of the equivalence suite: every loop of rowops.go, on every
// kernel path, must give the bits of the pure-Go loop (simd = nil) in every
// operand it touches — the same oracle, path axis, operand families and guard
// bands as the matmul kernels, over the same row and column grid.

// rowOpCase is one primitive as a layer calls it. operands spells the shapes
// it takes, one letter each: 'B' a rows x cols block, 'V' a per-column vector.
// run applies the primitive in place; every operand is compared afterwards,
// so an input the loop should not have written is checked too.
type rowOpCase struct {
	name     string
	operands string
	run      func(o []*Matrix)
	// exact compares NaNs by payload too: ReLU decides everything on bit
	// patterns, so even a NaN must come out as it went in.
	exact bool
	// rectified marks a case whose operand 0 is the rectified result of
	// arithmetic. Where two NaNs meet in one commutative operation, which
	// one's payload and sign survive is the Go compiler's choice of operand
	// order (the allowance bitsEqual makes), and the rectifier then turns
	// that sign into a NaN or a +0; so there, in operand 0 only, a NaN may
	// face a +0. Every other operand gets bitsEqual.
	// TestReLUIntoBitPatterns pins the fused rectifiers' decisions on single
	// NaNs, where no order is chosen.
	rectified bool
	// aliased marks a second form of a loop with dst among its sources;
	// BenchmarkRowOps times the plain form only.
	aliased bool
}

var testAdam = AdamCoeffs{B1: 0.9, OB1: 1 - 0.9, B2: 0.999, OB2: 1 - 0.999, LR: 1e-3, InvC1: 1 / (1 - 0.9), InvC2: 1 / (1 - 0.999), Eps: 1e-8}

var rowOpCases = []rowOpCase{
	{name: "AdamStep", operands: "BBBB", run: func(o []*Matrix) {
		// A second moment is a sum of squares; the special and relu operand
		// families leave exact zeros in it, with and without a gradient.
		for i, v := range o[2].Data {
			o[2].Data[i] = math.Abs(v)
		}
		AdamStep(o[0].Data, o[1].Data, o[2].Data, o[3].Data, testAdam)
	}},
	{name: "AddColSumSq", operands: "VVB", run: func(o []*Matrix) { AddColSumSq(o[0].Data, o[1].Data, o[2], nil) }},
	// A Dense→BatchNorm group's train sweep: the bias lands in x, then the
	// statistics read it.
	{name: "AddColSumSq/bias", operands: "VVBV", run: func(o []*Matrix) { AddColSumSq(o[0].Data, o[1].Data, o[2], o[3].Data) }},
	{name: "BatchNormApply", operands: "BBBVVVV", run: func(o []*Matrix) {
		BatchNormApply(o[0], o[1], o[2], nil, o[3].Data, o[4].Data, o[5].Data, o[6].Data, false)
	}},
	{name: "BatchNormApply/eval", operands: "BBVVVV", run: func(o []*Matrix) {
		BatchNormApply(o[0], nil, o[1], nil, o[2].Data, o[3].Data, o[4].Data, o[5].Data, false)
	}},
	// The fused forms: the apply sweep of a Dense→BatchNorm→ReLU group in
	// train mode (the bias went in with the statistics), Dense→BatchNorm on
	// the running statistics (a one-row train batch), and the whole group in
	// eval mode.
	{name: "BatchNormApply/relu", operands: "BBBVVVV", rectified: true, run: func(o []*Matrix) {
		BatchNormApply(o[0], o[1], o[2], nil, o[3].Data, o[4].Data, o[5].Data, o[6].Data, true)
	}},
	{name: "BatchNormApply/bias", operands: "BBBVVVVV", run: func(o []*Matrix) {
		BatchNormApply(o[0], o[1], o[2], o[3].Data, o[4].Data, o[5].Data, o[6].Data, o[7].Data, false)
	}},
	{name: "BatchNormApply/eval/bias/relu", operands: "BBVVVVV", rectified: true, run: func(o []*Matrix) {
		BatchNormApply(o[0], nil, o[1], o[2].Data, o[3].Data, o[4].Data, o[5].Data, o[6].Data, true)
	}},
	{name: "BatchNormGradSums", operands: "VVVVBBV", run: func(o []*Matrix) {
		BatchNormGradSums(o[0].Data, o[1].Data, o[2].Data, o[3].Data, o[4], o[5], o[6].Data)
	}},
	{name: "BatchNormGradInput", operands: "BBBVVVV", run: func(o []*Matrix) {
		BatchNormGradInput(o[0], o[1], o[2], o[3].Data, o[4].Data, o[5].Data, o[6].Data)
	}},
	// ReLU in train mode is its forward and the backward that reads that
	// forward's output back (out, x, dx, dout); in eval mode the forward alone.
	{name: "ReLUInto", operands: "BBBB", exact: true, run: func(o []*Matrix) {
		ReLUInto(o[0].Data, o[1].Data)
		ReLUGradInto(o[2].Data, o[3].Data, o[0].Data)
	}},
	{name: "ReLUInto/eval", operands: "BB", exact: true, run: func(o []*Matrix) { ReLUInto(o[0].Data, o[1].Data) }},
	// The masked multiply ReLU's backward runs, under the case names of the
	// plain multiply whose place it took: dx, dout, y, then dx aliasing dout.
	// y is drawn from every operand family, not only from ReLU outputs: the
	// factor is decided on any bit set, sign and NaN payload included.
	{name: "MulInto", operands: "BBB", run: func(o []*Matrix) { ReLUGradInto(o[0].Data, o[1].Data, o[2].Data) }},
	{name: "Hadamard", operands: "BB", aliased: true, run: func(o []*Matrix) { ReLUGradInto(o[0].Data, o[0].Data, o[1].Data) }}, // dx is dout
	{name: "AddInto", operands: "BBB", run: func(o []*Matrix) { AddInto(o[0].Data, o[1].Data, o[2].Data) }},
	{name: "AddInto/inplace", operands: "BB", aliased: true, run: func(o []*Matrix) { AddInto(o[0].Data, o[1].Data, o[0].Data) }}, // dst is b
	// A Residual→ReLU group: the skip sum rectified in the same sweep.
	{name: "AddReLUInto", operands: "BBB", rectified: true, run: func(o []*Matrix) { AddReLUInto(o[0].Data, o[1].Data, o[2].Data) }},
	{name: "AddRowVector", operands: "BV", run: func(o []*Matrix) { o[0].AddRowVector(o[1].Data) }},
	{name: "AddColSums", operands: "VB", run: func(o []*Matrix) { AddColSums(o[0].Data, o[1]) }},
}

// build draws the case's operands for a rows x cols block from gen.
func (c rowOpCase) build(gen func(seed uint64, rows, cols int) *Matrix, seed uint64, rows, cols int) []*Matrix {
	o := make([]*Matrix, len(c.operands))
	for i, kind := range c.operands {
		r := rows
		if kind == 'V' {
			r = 1
		}
		o[i] = gen(seed+uint64(i), r, cols)
	}
	return o
}

// rectifiedBitsEqual is bitsEqual with a NaN also allowed to face a +0 (see
// rowOpCase.rectified).
func rectifiedBitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		vb, wb := math.Float64bits(v), math.Float64bits(w)
		if vb != wb && !(math.IsNaN(v) && (math.IsNaN(w) || wb == 0)) && !(math.IsNaN(w) && vb == 0) {
			return false
		}
	}
	return true
}

// exactBitsEqual is bitsEqual without its allowance for NaN payloads.
func exactBitsEqual(a, b *Matrix) bool {
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return a.Rows == b.Rows && a.Cols == b.Cols
}

// rowOpAgrees runs c on the current kernel path, over operands passed through
// place (the identity, or a guard-band embedding), and compares every operand
// with what the pure-Go loop leaves in a second copy of them.
func rowOpAgrees(c rowOpCase, gen func(seed uint64, rows, cols int) *Matrix, seed uint64, rows, cols int, place func(i int, m *Matrix) *Matrix) error {
	want := c.build(gen, seed, rows, cols)
	loops := simd
	simd = nil
	c.run(want)
	simd = loops
	got := c.build(gen, seed, rows, cols)
	for i, m := range got {
		got[i] = place(i, m)
	}
	c.run(got)
	for i := range got {
		equal := bitsEqual
		switch {
		case c.exact:
			equal = exactBitsEqual
		case c.rectified && i == 0:
			equal = rectifiedBitsEqual
		}
		if !equal(got[i], want[i]) {
			return fmt.Errorf("%s %dx%d seed %d: operand %d not bit-identical to the pure-Go loop\n got  %v\n want %v",
				c.name, rows, cols, seed, i, got[i].Data, want[i].Data)
		}
	}
	return nil
}

func inPlace(_ int, m *Matrix) *Matrix { return m }

// TestEquivalenceRowOpsBitIdentical walks every row op over the grid of the
// matmul comparison — row counts around a batch, widths across every lane
// tail — and every operand family.
func TestEquivalenceRowOpsBitIdentical(t *testing.T) {
	for _, c := range rowOpCases {
		for _, mode := range operandModes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				onEachPath(t, func(t *testing.T) {
					for _, rows := range gridM {
						for _, cols := range gridN {
							if err := rowOpAgrees(c, mode.gen, uint64(rows*1000+cols), rows, cols, inPlace); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
			})
		}
	}
}

// TestEquivalenceRowOpsEmpty: a block with no rows or no columns is left
// alone on every path (the assembly is never entered with a zero count).
func TestEquivalenceRowOpsEmpty(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		for _, c := range rowOpCases {
			for _, shape := range [][2]int{{0, 5}, {3, 0}, {0, 0}} {
				if err := rowOpAgrees(c, eqOperands, 9, shape[0], shape[1], inPlace); err != nil {
					t.Error(err)
				}
			}
		}
	})
}

// TestRowOpsShapePanics: a length that does not match is a panic in the
// exported function, on every path, before any loop runs.
func TestRowOpsShapePanics(t *testing.T) {
	v := func(n int) []float64 { return make([]float64, n) }
	onEachPath(t, func(t *testing.T) {
		for name, fn := range map[string]func(){
			"AdamStep":            func() { AdamStep(v(4), v(4), v(3), v(4), testAdam) },
			"AddColSumSq":         func() { AddColSumSq(v(3), v(2), New(2, 3), nil) },
			"AddColSumSq/bias":    func() { AddColSumSq(v(3), v(3), New(2, 3), v(2)) },
			"BatchNormApply":      func() { BatchNormApply(New(2, 3), New(2, 3), New(2, 3), nil, v(3), v(3), v(4), v(3), false) },
			"BatchNormApply/out":  func() { BatchNormApply(New(3, 3), nil, New(2, 3), nil, v(3), v(3), v(3), v(3), true) },
			"BatchNormApply/bias": func() { BatchNormApply(New(2, 3), nil, New(2, 3), v(4), v(3), v(3), v(3), v(3), false) },
			"BatchNormGradSums":   func() { BatchNormGradSums(v(3), v(3), v(3), v(3), New(2, 3), New(3, 3), v(3)) },
			"BatchNormGradInput":  func() { BatchNormGradInput(New(2, 3), New(2, 3), New(2, 3), v(3), v(3), v(3), v(2)) },
			"ReLUInto":            func() { ReLUInto(v(5), v(4)) },
			"ReLUGradInto":        func() { ReLUGradInto(v(4), v(4), v(5)) },
			"AddInto":             func() { AddInto(v(4), v(3), v(4)) },
			"AddReLUInto":         func() { AddReLUInto(v(4), v(4), v(3)) },
			"AddRowVector":        func() { New(2, 3).AddRowVector(v(2)) },
			"AddColSums":          func() { AddColSums(v(4), New(2, 3)) },
		} {
			mustPanic(t, name+" with mismatched lengths", fn)
		}
	})
}

// TestReLUIntoBitPatterns pins the integer-domain decisions on every path:
// anything with the sign bit set, -0 and a negative-signed NaN included,
// becomes +0, and the backward's factor read from that output is 0; +0 keeps
// factor 0; every other pattern passes through untouched with factor 1 — in
// the vector lanes and in the tail alike, and through the fused residual add
// (x + +0) the same way.
func TestReLUIntoBitPatterns(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8_0000_0000_0001)
	posNaN := math.Float64frombits(0x7ff8_0000_0000_0001)
	in := []float64{-1, math.Copysign(0, -1), negNaN, math.Inf(-1), -math.SmallestNonzeroFloat64,
		0, 1, posNaN, math.Inf(1), math.SmallestNonzeroFloat64, 2.5}
	passes := []bool{false, false, false, false, false, false, true, true, true, true, true}
	onEachPath(t, func(t *testing.T) {
		for shift := 0; shift < len(in); shift++ { // every value visits every lane
			x := append(append([]float64{}, in[shift:]...), in[:shift]...)
			out, mask, fused := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
			ones := make([]float64, len(x))
			for i := range ones {
				ones[i] = 1
			}
			ReLUInto(out, x)
			ReLUGradInto(mask, ones, out)
			AddReLUInto(fused, x, make([]float64, len(x)))
			// BatchNorm with the identity map (mean 0, invStd 1, γ 1, β 0)
			// and a zero bias, rectified: every step keeps x or turns -0
			// into +0, so the fused rectifier must give the ReLU's bits.
			n := len(x)
			zeros := make([]float64, n)
			bn := New(1, n)
			BatchNormApply(bn, nil, FromSlice(1, n, x), zeros, zeros, ones, ones, zeros, true)
			for i, v := range x {
				wantOut, wantMask := uint64(0), 0.0
				if passes[(i+shift)%len(in)] {
					wantOut, wantMask = math.Float64bits(v), 1
				}
				if math.Float64bits(out[i]) != wantOut || math.Float64bits(mask[i]) != math.Float64bits(wantMask) {
					t.Fatalf("ReLUInto(%v [%#x]) = %#x, factor %v; want %#x, factor %v",
						v, math.Float64bits(v), math.Float64bits(out[i]), mask[i], wantOut, wantMask)
				}
				if math.Float64bits(fused[i]) != wantOut {
					t.Fatalf("AddReLUInto(%v [%#x], +0) = %#x, want %#x", v, math.Float64bits(v), math.Float64bits(fused[i]), wantOut)
				}
				if got := math.Float64bits(bn.Data[i]); got != wantOut {
					t.Fatalf("BatchNormApply(%v [%#x]) on the identity map, rectified = %#x, want %#x", v, math.Float64bits(v), got, wantOut)
				}
			}
		}
	})
}

// rowOpsAgree is the property behind TestPropertyRowOpsBitIdentical and
// FuzzRowOps: with the operand family drawn from seed, every row op gives the
// pure-Go loop's bits on every kernel path this host has.
func rowOpsAgree(seed uint64, rows, cols int) error {
	old := simd
	defer func() { simd = old }()
	gen := operandModes[stats.NewRNG(seed).IntN(len(operandModes))].gen
	for _, loops := range pathLoops() {
		simd = loops
		for _, c := range rowOpCases {
			if err := rowOpAgrees(c, gen, seed, rows, cols, inPlace); err != nil {
				return fmt.Errorf("%s loops: %w", loopsName(loops), err)
			}
		}
	}
	return nil
}

// TestPropertyRowOpsBitIdentical draws block shapes from a fixed seed, past
// the grid's largest in both directions.
func TestPropertyRowOpsBitIdentical(t *testing.T) {
	rng := stats.NewRNG(23)
	for i := 0; i < 150; i++ {
		if err := rowOpsAgree(rng.Uint64(), 1+rng.IntN(70), 1+rng.IntN(100)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRowOps lets the fuzzer pick the block shape (empty ones included) and
// the seed everything else is drawn from. `make fuzz` runs it; plain
// `go test` replays the seeds below.
func FuzzRowOps(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint8(48))
	f.Add(uint64(2), uint8(18), uint8(10))
	f.Add(uint64(3), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint8) {
		if err := rowOpsAgree(seed, int(rows%70), int(cols%100)); err != nil {
			t.Fatal(err)
		}
	})
}
