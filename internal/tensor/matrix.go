// Package tensor provides the dense linear-algebra substrate for the
// neural-network engine: row-major float64 matrices with the operations
// layer-wise backpropagation needs (plain and transposed matrix products,
// broadcast row ops, elementwise maps). It is deliberately small — only what
// the rest of the repository uses — but each operation is tested and
// allocation-conscious.
package tensor

import (
	"fmt"
	"math"

	"fedpkd/internal/stats"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	statMatrixAllocs.Add(1)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Ensure returns m reshaped to rows x cols, reusing its backing array when
// the capacity suffices and allocating a fresh matrix otherwise (m may be
// nil). The contents after a capacity-reusing call are ARBITRARY — callers
// own the buffer and must overwrite it. This is the reuse primitive behind
// the allocation-free training hot path: layer output buffers shrink and
// grow with the batch (e.g. the short final minibatch) without reallocating.
func Ensure(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return New(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows copies the given rows into a new matrix. All rows must share one
// length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows ragged input: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Randn fills a new matrix with N(0, std^2) entries drawn from rng.
func Randn(rng *stats.RNG, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets all entries to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all entries to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every entry by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Add accumulates other into m in place and returns m.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.mustSameShape(other, "Add")
	for i, v := range other.Data {
		m.Data[i] += v
	}
	return m
}

// Sub subtracts other from m in place and returns m.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.mustSameShape(other, "Sub")
	for i, v := range other.Data {
		m.Data[i] -= v
	}
	return m
}

// AddScaled accumulates s*other into m in place and returns m.
func (m *Matrix) AddScaled(s float64, other *Matrix) *Matrix {
	m.mustSameShape(other, "AddScaled")
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
	return m
}

// Apply replaces every entry x with f(x) in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var sum float64
	for _, v := range m.Data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Equal reports whether two matrices have identical shape and entries within
// eps.
func (m *Matrix) Equal(other *Matrix, eps float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > eps {
			return false
		}
	}
	return true
}

func (m *Matrix) mustSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}
