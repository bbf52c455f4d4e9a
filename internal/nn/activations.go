package nn

import "fedpkd/internal/tensor"

// ReLU writes into persistent per-layer buffers (resized with the batch via
// tensor.Ensure) instead of cloning its input each call — part of the
// allocation-free training hot path. The returned matrices obey the
// engine-wide buffer contract: valid until the next call on the same layer.

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
