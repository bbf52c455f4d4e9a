package nn

import (
	"math"

	"fedpkd/internal/tensor"
)

// Activation layers write into persistent per-layer buffers (resized with
// the batch via tensor.Ensure) instead of cloning their input each call —
// part of the allocation-free training hot path. The returned matrices obey
// the engine-wide buffer contract: valid until the next call on the same
// layer.

// reluVal and zeroOne are tensor.ReLUInto's branch-free bit tricks, which
// LeakyReLU builds its slope from: max(0, v) by masking on the sign bit, and
// 1.0 or 0.0 for a non-negative float that is or is not zero.
func reluVal(v float64) float64 {
	b := math.Float64bits(v)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

func zeroOne(nonNeg float64) float64 {
	u := int64(math.Float64bits(nonNeg))
	return float64((u | -u) >> 63 & 1)
}

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	// mask holds 1.0 where the last train-mode input was > 0 and 0.0
	// elsewhere, so the backward pass is one branch-free multiply.
	mask  []float64
	ready bool // mask is valid (a train-mode forward ran last)
	out   *tensor.Matrix
	dx    *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	r.out = tensor.Ensure(r.out, x.Rows, x.Cols)
	var mask []float64
	if train {
		r.mask = ensureFloats(r.mask, len(x.Data))
		mask = r.mask
	}
	tensor.ReLUInto(r.out.Data, mask, x.Data)
	r.ready = train
	return r.out
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !r.ready {
		panic("nn: ReLU.Backward called without a train-mode Forward")
	}
	r.dx = tensor.Ensure(r.dx, dout.Rows, dout.Cols)
	tensor.MulInto(r.dx.Data, dout.Data, r.mask)
	return r.dx
}

// Params returns nil: ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is max(alpha*x, x) with a small negative-side slope.
type LeakyReLU struct {
	Alpha float64

	// scale holds the local derivative of the last train-mode forward per
	// element — 1.0 on the positive side, Alpha elsewhere — making backward
	// a single branch-free multiply.
	scale []float64
	ready bool
	out   *tensor.Matrix
	dx    *tensor.Matrix
}

var _ Layer = (*LeakyReLU)(nil)

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier elementwise.
func (l *LeakyReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	l.out = tensor.Ensure(l.out, x.Rows, x.Cols)
	out := l.out.Data
	alpha := l.Alpha
	if train {
		if cap(l.scale) < len(out) {
			l.scale = make([]float64, len(out))
		}
		l.scale = l.scale[:len(out)]
		scale := l.scale
		for i, v := range x.Data {
			pos := zeroOne(reluVal(v)) // 1 where v > 0
			// pos + alpha*(1-pos) is exactly 1.0 or alpha (no rounding),
			// so the positive side stays bit-identical to plain v.
			s := pos + alpha*(1-pos)
			out[i] = v * s
			scale[i] = s
		}
	} else {
		for i, v := range x.Data {
			pos := zeroOne(reluVal(v))
			out[i] = v * (pos + alpha*(1-pos))
		}
	}
	l.ready = train
	return l.out
}

// Backward scales gradients by Alpha where the forward input was
// non-positive.
func (l *LeakyReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !l.ready {
		panic("nn: LeakyReLU.Backward called without a train-mode Forward")
	}
	l.dx = tensor.Ensure(l.dx, dout.Rows, dout.Cols)
	dx := l.dx.Data
	scale := l.scale
	for i, v := range dout.Data {
		dx[i] = v * scale[i]
	}
	return l.dx
}

// Params returns nil: LeakyReLU has no trainable parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	out   *tensor.Matrix // persistent output, doubles as the backward cache
	dx    *tensor.Matrix
	ready bool
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	t.out = tensor.Ensure(t.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		t.out.Data[i] = math.Tanh(v)
	}
	t.ready = train
	return t.out
}

// Backward multiplies by 1 - tanh(x)^2 using the cached output.
func (t *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !t.ready {
		panic("nn: Tanh.Backward called without a train-mode Forward")
	}
	t.dx = tensor.Ensure(t.dx, dout.Rows, dout.Cols)
	for i, y := range t.out.Data {
		t.dx.Data[i] = dout.Data[i] * (1 - y*y)
	}
	return t.dx
}

// Params returns nil: Tanh has no trainable parameters.
func (t *Tanh) Params() []*Param { return nil }
