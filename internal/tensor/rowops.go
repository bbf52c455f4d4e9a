package tensor

import (
	"fmt"
	"math"
)

// The per-element loops of one training step outside the matrix products:
// the Adam update, BatchNorm's sweeps, ReLU and its gradient, the bias
// broadcast and its gradient, the residual add. Each works on a whole
// contiguous block — rows x cols row-major, or a flat vector — so a layer
// makes one call, not one per row. Several take optional operands (a nil
// bias, a relu flag) that fold the next layer's sweep into theirs, so a
// Dense→BatchNorm→ReLU or Residual→ReLU group reads and writes each element
// once per sweep instead of once per layer; every element still sees the
// unfused layers' expressions in their order. Rows are always visited in
// index order and columns never interact, so every per-column sum keeps one
// addition order; with simd set the same expressions run four or eight
// columns per instruction (simdRowOps), bit for bit.
// None of them counts into KernelStats.Ops, which stays the matmuls' count.

// simdRowOps are the data-parallel forms of the loops in this file, under
// the contract of simdLoops: lanes across columns, every operation its own
// IEEE-exact instruction in the Go expression's order. Blocks arrive as flat
// row-major slices of rows*cols values, cols being the length of the
// per-column operands.
type simdRowOps struct {
	adam        func(p, m, v, g []float64, k AdamCoeffs)
	colSumSq    func(sum, sumSq, x, bias []float64, rows int)                                      // bias may be nil
	bnApply     func(out, xhat, x, bias, mean, invStd, gamma, beta []float64, rows int, relu bool) // xhat, bias may be nil
	bnGradSums  func(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma []float64, rows int)
	bnGradInput func(dx, dout, xhat, gamma, sumD, sumDX, invStd []float64, rows int, m, invM float64)
	relu        func(out, x []float64)
	reluGrad    func(dx, dout, y []float64)
	add         func(dst, a, b []float64, relu bool)
	addRowVec   func(m, v []float64, rows int)
	addColSums  func(sums, m []float64, rows int)
}

func mustLen(op, name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("tensor: %s got %d values of %s, want %d", op, got, name, want))
	}
}

// AdamCoeffs are the constants of one Adam step: the decay rates and their
// complements, the learning rate, and the step's bias corrections as
// reciprocals.
type AdamCoeffs struct {
	B1, OB1      float64 // β₁, 1-β₁
	B2, OB2      float64 // β₂, 1-β₂
	LR           float64
	InvC1, InvC2 float64 // 1/(1-β₁ᵗ), 1/(1-β₂ᵗ)
	Eps          float64
}

// AdamStep updates a parameter p and its moments m, v from the gradient g,
// and consumes g: it stores +0 into each gradient word once it has read it.
//
//	m = B1*m + OB1*g
//	v = B2*v + (OB2*g)*g
//	p = p - (LR*(m*InvC1)) / (sqrt(v*InvC2) + Eps)
//	g = +0
func AdamStep(p, m, v, g []float64, k AdamCoeffs) {
	n := len(g)
	mustLen("AdamStep", "p", len(p), n)
	mustLen("AdamStep", "m", len(m), n)
	mustLen("AdamStep", "v", len(v), n)
	if n == 0 {
		return
	}
	if simd != nil {
		simd.adam(p, m, v, g, k)
		return
	}
	for i, gi := range g {
		mi := k.B1*m[i] + k.OB1*gi
		vi := k.B2*v[i] + k.OB2*gi*gi
		m[i] = mi
		v[i] = vi
		g[i] = 0
		p[i] -= k.LR * (mi * k.InvC1) / (math.Sqrt(vi*k.InvC2) + k.Eps)
	}
}

// AddColSumSq accumulates x's per-column sums and sums of squares:
// sum[j] += x[i][j] and sumSq[j] += x[i][j]*x[i][j], rows ascending
// (BatchNorm's batch statistics). A non-nil bias is first added to x in
// place, x[i][j] += bias[j], in the same sweep: the Dense bias broadcast of
// a Dense→BatchNorm group, whose statistics see the biased values.
func AddColSumSq(sum, sumSq []float64, x *Matrix, bias []float64) {
	mustLen("AddColSumSq", "sum", len(sum), x.Cols)
	mustLen("AddColSumSq", "sumSq", len(sumSq), x.Cols)
	if bias != nil {
		mustLen("AddColSumSq", "bias", len(bias), x.Cols)
	}
	if len(x.Data) == 0 {
		return
	}
	if simd != nil {
		simd.colSumSq(sum, sumSq, x.Data, bias, x.Rows)
		return
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		if bias != nil {
			for j, b := range bias {
				row[j] += b
			}
		}
		for j, v := range row {
			sum[j] += v
			sumSq[j] += v * v
		}
	}
}

// BatchNormApply normalizes x with per-column statistics and applies the
// affine map: xhat = (x - mean[j])*invStd[j], out = gamma[j]*xhat + beta[j].
// A nil xhat is the eval form, which keeps no normalized copy. Two
// neighbours fold in: a non-nil bias is added first, x + bias[j] standing
// for x (a Dense layer's bias, when x is its product), and relu rectifies
// out as ReLUInto does (a ReLU after the BatchNorm). x is only read.
func BatchNormApply(out, xhat, x *Matrix, bias, mean, invStd, gamma, beta []float64, relu bool) {
	x.mustSameShape(out, "BatchNormApply")
	if xhat != nil {
		x.mustSameShape(xhat, "BatchNormApply")
	}
	if bias != nil {
		mustLen("BatchNormApply", "bias", len(bias), x.Cols)
	}
	for _, v := range [][]float64{mean, invStd, gamma, beta} {
		mustLen("BatchNormApply", "a per-column operand", len(v), x.Cols)
	}
	if len(x.Data) == 0 {
		return
	}
	var xh []float64
	if xhat != nil {
		xh = xhat.Data
	}
	if simd != nil {
		simd.bnApply(out.Data, xh, x.Data, bias, mean, invStd, gamma, beta, x.Rows, relu)
		return
	}
	cols := x.Cols
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			if bias != nil {
				v += bias[j]
			}
			h := (v - mean[j]) * invStd[j]
			if xh != nil {
				xh[i*cols+j] = h
			}
			y := gamma[j]*h + beta[j]
			if relu {
				y = reluVal(y)
			}
			orow[j] = y
		}
	}
}

// BatchNormGradSums is the reduction sweep of BatchNorm's backward pass.
// With dxhat = dout[i][j]*gamma[j], rows ascending, it accumulates
//
//	sumD[j] += dxhat             sumDX[j] += dxhat*xhat[i][j]
//	bGrad[j] += dout[i][j]       gGrad[j] += dout[i][j]*xhat[i][j]
func BatchNormGradSums(sumD, sumDX, gGrad, bGrad []float64, dout, xhat *Matrix, gamma []float64) {
	dout.mustSameShape(xhat, "BatchNormGradSums")
	for _, v := range [][]float64{sumD, sumDX, gGrad, bGrad, gamma} {
		mustLen("BatchNormGradSums", "a per-column operand", len(v), dout.Cols)
	}
	if len(dout.Data) == 0 {
		return
	}
	if simd != nil {
		simd.bnGradSums(sumD, sumDX, gGrad, bGrad, dout.Data, xhat.Data, gamma, dout.Rows)
		return
	}
	for i := 0; i < dout.Rows; i++ {
		drow := dout.Row(i)
		xrow := xhat.Row(i)
		for j, d := range drow {
			dxhat := d * gamma[j]
			sumD[j] += dxhat
			sumDX[j] += dxhat * xrow[j]
			gGrad[j] += d * xrow[j]
			bGrad[j] += d
		}
	}
}

// BatchNormGradInput is the second sweep: with m the row count and dxhat as
// in BatchNormGradSums, whose sums it takes,
//
//	dx = (((dxhat*m - sumD[j]) - xhat*sumDX[j]) * invStd[j]) * (1/m)
func BatchNormGradInput(dx, dout, xhat *Matrix, gamma, sumD, sumDX, invStd []float64) {
	dout.mustSameShape(dx, "BatchNormGradInput")
	dout.mustSameShape(xhat, "BatchNormGradInput")
	for _, v := range [][]float64{gamma, sumD, sumDX, invStd} {
		mustLen("BatchNormGradInput", "a per-column operand", len(v), dout.Cols)
	}
	if len(dout.Data) == 0 {
		return
	}
	m := float64(dout.Rows)
	invM := 1 / m
	if simd != nil {
		simd.bnGradInput(dx.Data, dout.Data, xhat.Data, gamma, sumD, sumDX, invStd, dout.Rows, m, invM)
		return
	}
	for i := 0; i < dout.Rows; i++ {
		drow := dout.Row(i)
		xrow := xhat.Row(i)
		dxrow := dx.Row(i)
		for j, d := range drow {
			dxhat := d * gamma[j]
			dxrow[j] = (dxhat*m - sumD[j] - xrow[j]*sumDX[j]) * invStd[j] * invM
		}
	}
}

// reluVal returns max(0, v) without a branch: negative inputs (sign bit
// set) are masked to +0.0, everything else — including +0.0 and -0.0 —
// passes through as itself or +0.0. Bit-for-bit the same outputs as the
// branchy form, but immune to the ~50% mispredict rate of random-signed
// activations.
func reluVal(v float64) float64 {
	b := math.Float64bits(v)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// zeroOne returns 1.0 when nonNeg (a reluVal result, so never negative) is
// nonzero and 0.0 when it is zero, again branch-free: for a non-negative
// float, the bit pattern is zero iff the value is zero.
func zeroOne(nonNeg float64) float64 {
	u := int64(math.Float64bits(nonNeg))
	return float64((u | -u) >> 63 & 1)
}

// ReLUInto writes out = max(0, x), decided on the bit pattern: any input
// with the sign bit set, -0 and negative-signed NaN included, gives +0.
func ReLUInto(out, x []float64) {
	mustLen("ReLUInto", "out", len(out), len(x))
	if len(x) == 0 {
		return
	}
	if simd != nil {
		simd.relu(out, x)
		return
	}
	for i, v := range x {
		out[i] = reluVal(v)
	}
}

// ReLUGradInto is ReLU's backward pass from its own output y:
// dx = dout*1.0 where y has any bit set and dout*(+0) where y is +0, the
// factor zeroOne(y) decided on y's bits in the same sweep, so the layer keeps
// no mask. dx may be dout itself.
func ReLUGradInto(dx, dout, y []float64) {
	mustLen("ReLUGradInto", "dout", len(dout), len(dx))
	mustLen("ReLUGradInto", "y", len(y), len(dx))
	if len(dx) == 0 {
		return
	}
	if simd != nil {
		simd.reluGrad(dx, dout, y)
		return
	}
	for i, d := range dout {
		dx[i] = d * zeroOne(y[i])
	}
}

// AddInto writes dst[i] = a[i]+b[i]. dst may be a or b themselves.
func AddInto(dst, a, b []float64) { addInto("AddInto", dst, a, b, false) }

// AddReLUInto writes dst[i] = max(0, a[i]+b[i]), the sum rectified as
// ReLUInto does: a residual add and the ReLU after it in one sweep. dst may
// be a or b themselves.
func AddReLUInto(dst, a, b []float64) { addInto("AddReLUInto", dst, a, b, true) }

func addInto(op string, dst, a, b []float64, relu bool) {
	mustLen(op, "a", len(a), len(dst))
	mustLen(op, "b", len(b), len(dst))
	if len(dst) == 0 {
		return
	}
	if simd != nil {
		simd.add(dst, a, b, relu)
		return
	}
	if relu {
		for i, v := range a {
			dst[i] = reluVal(v + b[i])
		}
		return
	}
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// AddRowVector adds v to every row of m in place (bias broadcast).
func (m *Matrix) AddRowVector(v []float64) *Matrix {
	mustLen("AddRowVector", "v", len(v), m.Cols)
	if len(m.Data) == 0 {
		return m
	}
	if simd != nil {
		simd.addRowVec(m.Data, v, m.Rows)
		return m
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
	return m
}

// AddColSums accumulates m's per-column sums, sums[j] += m[i][j] with rows
// ascending (bias gradients).
func AddColSums(sums []float64, m *Matrix) {
	mustLen("AddColSums", "sums", len(sums), m.Cols)
	if len(m.Data) == 0 {
		return
	}
	if simd != nil {
		simd.addColSums(sums, m.Data, m.Rows)
		return
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			sums[j] += v
		}
	}
}
