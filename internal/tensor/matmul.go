package tensor

import "fmt"

// Matrix products in the three orientations backpropagation needs, each with
// a destination-reuse *Into variant so the training hot path runs without
// per-batch allocations:
//
//	MatMul   / MatMulInto      out = a · b       forward activations
//	MatMulTN / MatMulTNInto    out = aᵀ · b      weight gradients (xᵀ·dy)
//	MatMulNT / MatMulNTInto    out = a · bᵀ      input gradients (dy·Wᵀ)
//	MatMulTNAccInto            out += aᵀ · b     fused gradient accumulation
//
// All of them dispatch through the shared worker pool (pool.go) above a work
// threshold and run on the calling goroutine below it; results are
// bit-identical either way (see kernels.go for the determinism contract).

// MatMul returns a*b. Shapes: (m x k) * (k x n) -> (m x n).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a*b, reusing out's storage. out must have shape
// (a.Rows x b.Cols) and must not alias a or b.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch out=%dx%d a=%dx%d b=%dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustNotAlias("MatMulInto", out, a, b)
	ops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	// Serial calls skip parallelFor entirely so the hot path builds no
	// closure — steady-state small kernels are allocation-free.
	if !useParallel(out.Rows, ops) {
		gemmNNPanel(out, a, b, 0, out.Rows)
		noteSerial(ops)
		return
	}
	parallelFor(out.Rows, ops, func(lo, hi int) { gemmNNPanel(out, a, b, lo, hi) })
}

// MatMulTN returns aᵀ*b. Shapes: (k x m)ᵀ * (k x n) -> (m x n). Used for
// weight gradients (xᵀ · dy) without materializing the transpose.
func MatMulTN(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN shape mismatch %dx%dᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	matMulTNInto(out, a, b, false)
	return out
}

// MatMulTNInto computes out = aᵀ*b, reusing out's storage. out must have
// shape (a.Cols x b.Cols) and must not alias a or b.
func MatMulTNInto(out, a, b *Matrix) {
	matMulTNInto(out, a, b, false)
}

// MatMulTNAccInto accumulates out += aᵀ*b without a temporary — the fused
// form of Grad.Add(MatMulTN(x, dy)) that the Dense backward hot path uses.
func MatMulTNAccInto(out, a, b *Matrix) {
	matMulTNInto(out, a, b, true)
}

func matMulTNInto(out, a, b *Matrix, acc bool) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTNInto shape mismatch out=%dx%d a=%dx%dᵀ b=%dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustNotAlias("MatMulTNInto", out, a, b)
	ops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if !useParallel(out.Rows, ops) {
		gemmTNPanel(out, a, b, 0, out.Rows, acc)
		noteSerial(ops)
		return
	}
	parallelFor(out.Rows, ops, func(lo, hi int) { gemmTNPanel(out, a, b, lo, hi, acc) })
}

// MatMulNT returns a*bᵀ. Shapes: (m x k) * (n x k)ᵀ -> (m x n). Used for
// input gradients (dy · Wᵀ) without materializing the transpose.
func MatMulNT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT shape mismatch %dx%d * %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	MatMulNTInto(out, a, b)
	return out
}

// MatMulNTInto computes out = a*bᵀ, reusing out's storage. out must have
// shape (a.Rows x b.Rows) and must not alias a or b.
func MatMulNTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNTInto shape mismatch out=%dx%d a=%dx%d b=%dx%dᵀ",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustNotAlias("MatMulNTInto", out, a, b)
	ops := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	if ops >= minPackNTOps {
		matMulNTPacked(out, a, b, ops)
		return
	}
	// The simd dot loops run lanes across b's rows, so they need bᵀ: packed
	// once per call, before any fan-out, into pooled scratch. Assigned once
	// so the parallel closure captures it by value and the serial path stays
	// allocation-free.
	bt := packTForSIMD(b)
	if !useParallel(out.Rows, ops) {
		gemmNTPanel(out, a, b, bt, 0, out.Rows)
		noteSerial(ops)
	} else {
		parallelFor(out.Rows, ops, func(lo, hi int) { gemmNTPanel(out, a, b, bt, lo, hi) })
	}
	Release(bt)
}

// Transpose returns a new matrix that is m transposed.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// TransposeInto computes out = mᵀ, reusing out's storage. out must have
// shape (m.Cols x m.Rows) and must not alias m.
func TransposeInto(out, m *Matrix) {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch out=%dx%d m=%dx%d",
			out.Rows, out.Cols, m.Rows, m.Cols))
	}
	mustNotAlias("TransposeInto", out, m, m)
	// A transpose is pure data movement; one element copied per "op" makes
	// the threshold comparable to the matmul kernels' multiply-adds.
	ops := int64(m.Rows) * int64(m.Cols)
	if !useParallel(out.Rows, ops) {
		transposePanel(out, m, 0, out.Rows)
		noteSerial(ops)
		return
	}
	parallelFor(out.Rows, ops, func(lo, hi int) { transposePanel(out, m, lo, hi) })
}

// sharesStorage reports whether two matrices are backed by the same array
// (detected via their first elements; the only aliasing the repo can produce
// is whole-buffer reuse, not partial overlap).
func sharesStorage(x, y *Matrix) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// mustNotAlias panics when out shares storage with either operand: the
// kernels write the output while still reading the inputs, so aliased calls
// would silently corrupt the product.
func mustNotAlias(op string, out, a, b *Matrix) {
	if sharesStorage(out, a) || sharesStorage(out, b) {
		panic("tensor: " + op + " out must not alias an operand")
	}
}
