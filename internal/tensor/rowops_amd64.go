package tensor

// Declarations for rowops_amd64.s. As in simd_amd64.go, the wrappers are the
// only callers of the assembly and pin every operand to the exact length it
// reads or writes; rowops.go has already turned away empty blocks.

//go:noescape
func adamAVX2(p, m, v, grad *float64, n int, k *AdamCoeffs)

//go:noescape
func colSumSqAVX2(sum, sumSq, x *float64, rows, cols int)

//go:noescape
func bnApplyAVX2(out, xhat, x, mean, invStd, gamma, beta *float64, rows, cols int)

//go:noescape
func bnGradSumsAVX2(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma *float64, rows, cols int)

//go:noescape
func bnGradInputAVX2(dx, dout, xhat, gamma, sumD, sumDX, invStd *float64, rows, cols int, m, invM float64)

//go:noescape
func reluAVX2(out, mask, x *float64, n int)

//go:noescape
func mulAVX2(dst, a, b *float64, n int)

//go:noescape
func addAVX2(dst, a, b *float64, n int)

//go:noescape
func addRowVecAVX2(m, v *float64, rows, cols int)

//go:noescape
func addColSumsAVX2(sums, m *float64, rows, cols int)

// base returns the address of s's first value after checking that s holds at
// least n >= 1 of them.
func base(s []float64, n int) *float64 {
	_ = s[n-1]
	return &s[0]
}

var avx2RowOps = simdRowOps{
	adam: func(p, m, v, g []float64, k AdamCoeffs) {
		n := len(g)
		adamAVX2(base(p, n), base(m, n), base(v, n), base(g, n), n, &k)
	},
	colSumSq: func(sum, sumSq, x []float64, rows int) {
		cols := len(sum)
		colSumSqAVX2(base(sum, cols), base(sumSq, cols), base(x, rows*cols), rows, cols)
	},
	bnApply: func(out, xhat, x, mean, invStd, gamma, beta []float64, rows int) {
		cols := len(mean)
		n := rows * cols
		var xh *float64
		if xhat != nil {
			xh = base(xhat, n)
		}
		bnApplyAVX2(base(out, n), xh, base(x, n), base(mean, cols), base(invStd, cols), base(gamma, cols), base(beta, cols), rows, cols)
	},
	bnGradSums: func(sumD, sumDX, gGrad, bGrad, dout, xhat, gamma []float64, rows int) {
		cols := len(gamma)
		n := rows * cols
		bnGradSumsAVX2(base(sumD, cols), base(sumDX, cols), base(gGrad, cols), base(bGrad, cols), base(dout, n), base(xhat, n), base(gamma, cols), rows, cols)
	},
	bnGradInput: func(dx, dout, xhat, gamma, sumD, sumDX, invStd []float64, rows int, m, invM float64) {
		cols := len(gamma)
		n := rows * cols
		bnGradInputAVX2(base(dx, n), base(dout, n), base(xhat, n), base(gamma, cols), base(sumD, cols), base(sumDX, cols), base(invStd, cols), rows, cols, m, invM)
	},
	relu: func(out, mask, x []float64) {
		n := len(x)
		var mk *float64
		if mask != nil {
			mk = base(mask, n)
		}
		reluAVX2(base(out, n), mk, base(x, n), n)
	},
	mul: func(dst, a, b []float64) {
		n := len(dst)
		mulAVX2(base(dst, n), base(a, n), base(b, n), n)
	},
	add: func(dst, a, b []float64) {
		n := len(dst)
		addAVX2(base(dst, n), base(a, n), base(b, n), n)
	},
	addRowVec: func(m, v []float64, rows int) {
		cols := len(v)
		addRowVecAVX2(base(m, rows*cols), base(v, cols), rows, cols)
	},
	addColSums: func(sums, m []float64, rows int) {
		cols := len(sums)
		addColSumsAVX2(base(sums, cols), base(m, rows*cols), rows, cols)
	},
}
