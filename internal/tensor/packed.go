package tensor

// The packed-panel NT path.
//
// MatMulNT's dot-product kernel tops out well below the NN kernel: every
// output element re-streams a k-length row of b and the 2x2 register block
// is the only operand reuse, so at large shapes NT lagged NN by ~40%. Above
// minPackNTOps the dispatcher packs bᵀ once into a contiguous arena panel and
// streams the product through the NN saxpy kernel instead — the pack is
// O(n·k) data movement against O(m·n·k) compute, so its cost vanishes exactly
// where the threshold admits it.
//
// Numerics: the NN kernel's reduction (ascending k, 4-wide groups) differs
// from the NT dot kernel's 2-way split, so the packed path is numerically
// equal but not bit-identical to the unpacked one. The threshold therefore
// sits far above every training shape — models.FeatureWidth bounds training
// NT products at ~1e5 multiply-adds — keeping training trajectories and the
// byte-exact goldens untouched. Within the packed path, serial and parallel
// launches are bit-identical because the pack is deterministic and the NN
// kernel's reduction is panel-independent (the determinism contract in
// kernels.go).

// minPackNTOps is the multiply-add count at which MatMulNTInto switches to
// the packed-panel kernel. A var, not a const, so tests can force the packed
// path for small shapes or starve it to pin the threshold contract.
var minPackNTOps int64 = 1 << 18

// matMulNTPacked computes out = a·bᵀ by packing bᵀ into an arena scratch
// panel and running the NN kernel over it. The scratch round-trips through
// GetScratch/Release, so the steady state allocates nothing.
func matMulNTPacked(out, a, b *Matrix, ops int64) {
	bt := packT(b)
	if !useParallel(out.Rows, ops) {
		gemmNNPanel(out, a, bt, 0, out.Rows)
		noteSerial(ops)
	} else {
		parallelFor(out.Rows, ops, func(lo, hi int) { gemmNNPanel(out, a, bt, lo, hi) })
	}
	Release(bt)
}

// packT returns bᵀ in an arena scratch panel; the caller Releases it.
func packT(b *Matrix) *Matrix {
	bt := GetScratch(b.Cols, b.Rows)
	transposePanel(bt, b, 0, bt.Rows)
	return bt
}

// packTForSIMD is packT for the dot-product kernel below minPackNTOps: the
// simd column loops read a packed bᵀ, the Go loops read b itself and get nil
// (as does an empty b, which leaves the simd loops nothing to do). The
// reduction order per element is dotSplit2's either way, so unlike the
// threshold above this choice moves no result bit.
func packTForSIMD(b *Matrix) *Matrix {
	if simd == nil || len(b.Data) == 0 {
		return nil
	}
	return packT(b)
}
