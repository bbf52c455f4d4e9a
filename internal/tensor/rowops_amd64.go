package tensor

// Declarations for rowops_amd64.s. As in simd_amd64.go, the wrappers are the
// only callers of the assembly and pin every operand to the exact length it
// reads or writes; rowops.go has already turned away empty blocks.

//go:noescape
func adamAVX2(p, m, v, grad *float64, n int, k *AdamCoeffs)

//go:noescape
func colSumSqAsm(sum, sumSq, x, bias *float64, rows, cols int, wide bool)

//go:noescape
func bnApplyAsm(out, xhat, x, bias, mean, invStd, gamma, beta *float64, rows, cols int, relu, wide bool)

//go:noescape
func bnGradSumsAsm(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma *float64, rows, cols int, wide bool)

//go:noescape
func bnGradInputAsm(dx, dout, xhat, gamma, sumD, sumDX, invStd *float64, rows, cols int, m, invM float64, wide bool)

//go:noescape
func reluAsm(out, x *float64, n int, wide bool)

//go:noescape
func reluGradAsm(dx, dout, y *float64, n int, wide bool)

//go:noescape
func addAsm(dst, a, b *float64, n int, relu, wide bool)

//go:noescape
func addRowVecAsm(m, v *float64, rows, cols int, wide bool)

//go:noescape
func addColSumsAsm(sums, m *float64, rows, cols int, wide bool)

// base returns the address of s's first value after checking that s holds at
// least n >= 1 of them.
func base(s []float64, n int) *float64 {
	_ = s[n-1]
	return &s[0]
}

// baseOrNil is base for an optional operand: nil stays nil.
func baseOrNil(s []float64, n int) *float64 {
	if s == nil {
		return nil
	}
	return base(s, n)
}

// asmRowOps returns the row ops of the loop set whose 8-lane steps wide
// turns on. Adam has none: it runs the AVX2 loop in both sets.
func asmRowOps(wide bool) simdRowOps {
	return simdRowOps{
		adam: func(p, m, v, g []float64, k AdamCoeffs) {
			n := len(g)
			adamAVX2(base(p, n), base(m, n), base(v, n), base(g, n), n, &k)
		},
		colSumSq: func(sum, sumSq, x, bias []float64, rows int) {
			cols := len(sum)
			colSumSqAsm(base(sum, cols), base(sumSq, cols), base(x, rows*cols), baseOrNil(bias, cols), rows, cols, wide)
		},
		bnApply: func(out, xhat, x, bias, mean, invStd, gamma, beta []float64, rows int, relu bool) {
			cols := len(mean)
			n := rows * cols
			bnApplyAsm(base(out, n), baseOrNil(xhat, n), base(x, n), baseOrNil(bias, cols),
				base(mean, cols), base(invStd, cols), base(gamma, cols), base(beta, cols), rows, cols, relu, wide)
		},
		bnGradSums: func(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma []float64, rows int) {
			cols := len(gamma)
			n := rows * cols
			bnGradSumsAsm(base(sumD, cols), base(sumDX, cols), base(gGrad, cols), base(bGrad, cols), base(dout, n), base(xhat, n), base(gamma, cols), rows, cols, wide)
		},
		bnGradInput: func(dx, dout, xhat, gamma, sumD, sumDX, invStd []float64, rows int, m, invM float64) {
			cols := len(gamma)
			n := rows * cols
			bnGradInputAsm(base(dx, n), base(dout, n), base(xhat, n), base(gamma, cols), base(sumD, cols), base(sumDX, cols), base(invStd, cols), rows, cols, m, invM, wide)
		},
		relu: func(out, x []float64) {
			n := len(x)
			reluAsm(base(out, n), base(x, n), n, wide)
		},
		reluGrad: func(dx, dout, y []float64) {
			n := len(dx)
			reluGradAsm(base(dx, n), base(dout, n), base(y, n), n, wide)
		},
		add: func(dst, a, b []float64, relu bool) {
			n := len(dst)
			addAsm(base(dst, n), base(a, n), base(b, n), n, relu, wide)
		},
		addRowVec: func(m, v []float64, rows int) {
			cols := len(v)
			addRowVecAsm(base(m, rows*cols), base(v, cols), rows, cols, wide)
		},
		addColSums: func(sums, m []float64, rows int) {
			cols := len(sums)
			addColSumsAsm(base(sums, cols), base(m, rows*cols), rows, cols, wide)
		},
	}
}
