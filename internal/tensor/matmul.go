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
// Each runs whole on the calling goroutine, through one kernel per
// orientation (see kernels.go for the determinism contract).

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
	gemmNNPanel(out, a, b)
	noteSerial(int64(a.Rows) * int64(a.Cols) * int64(b.Cols))
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
	gemmTNPanel(out, a, b, acc)
	noteSerial(int64(a.Rows) * int64(a.Cols) * int64(b.Cols))
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
	bt := packTForSIMD(b)
	gemmNTPanel(out, a, b, bt)
	Release(bt)
	noteSerial(int64(a.Rows) * int64(a.Cols) * int64(b.Rows))
}

// packTForSIMD returns bᵀ in an arena scratch matrix for the simd dot loops,
// which run lanes across b's rows; the caller Releases it. The Go loops read
// b itself and get nil (as does an empty b, which leaves the simd loops
// nothing to do). The reduction order per element is dotSplit2's either way.
func packTForSIMD(b *Matrix) *Matrix {
	if simd == nil || len(b.Data) == 0 {
		return nil
	}
	bt := GetScratch(b.Cols, b.Rows)
	transposePanel(bt, b)
	return bt
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
	transposePanel(out, m)
	// A transpose is pure data movement: one op per element copied.
	noteSerial(int64(m.Rows) * int64(m.Cols))
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
