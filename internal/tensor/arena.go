package tensor

import (
	"math/bits"
	"sync"
)

// The scratch-matrix arena: a size-classed sync.Pool of matrices for
// transient per-batch tensors (loss gradients, softmax scratch, gathered
// batches) so the training hot path reaches a steady state with no matrix
// allocations. Classes are powers of two of the element count; a matrix is
// handed out with len == rows*cols resliced from a class-sized backing
// array.
//
// Ownership protocol: GetScratch transfers ownership to the caller; Release
// transfers it back. Using a matrix after Release, or releasing it twice, is
// a data race with whoever gets it next — exactly like any pool.

const maxScratchClass = 28 // largest pooled backing: 2^28 floats (2 GiB)

var scratchPools [maxScratchClass + 1]sync.Pool

// GetScratch returns a rows x cols matrix whose contents are ARBITRARY
// (stale data from a prior user). Callers must fully overwrite it or zero it
// with Zero(). Shape-zero requests are served without backing storage.
func GetScratch(rows, cols int) *Matrix {
	n := rows * cols
	statScratchGets.Add(1)
	if n == 0 {
		return &Matrix{Rows: rows, Cols: cols}
	}
	class := bits.Len(uint(n - 1))
	if class > maxScratchClass {
		statScratchMisses.Add(1)
		return New(rows, cols)
	}
	if v := scratchPools[class].Get(); v != nil {
		m := v.(*Matrix)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		return m
	}
	statScratchMisses.Add(1)
	statMatrixAllocs.Add(1)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<class)}
}

// EnsureScratch is Ensure over the arena, for a workspace reused across a
// loop: m resized to rows x cols when its backing array holds them, else m
// returned to the arena (Release) and a scratch matrix in its place. Contents
// are arbitrary either way, as GetScratch's. The caller Releases the last
// matrix it got back.
func EnsureScratch(m *Matrix, rows, cols int) *Matrix {
	if m != nil && cap(m.Data) >= rows*cols {
		return Ensure(m, rows, cols)
	}
	Release(m)
	return GetScratch(rows, cols)
}

// Release returns a matrix to the arena. Only matrices whose backing array
// is an exact power-of-two capacity (i.e. ones GetScratch handed out) are
// pooled; anything else is dropped for the GC. Release(nil) is a no-op.
func Release(m *Matrix) {
	if m == nil || m.Data == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c - 1))
	if class > maxScratchClass {
		return
	}
	statScratchPuts.Add(1)
	m.Data = m.Data[:0]
	m.Rows, m.Cols = 0, 0
	scratchPools[class].Put(m)
}
