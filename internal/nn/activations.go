package nn

import "fedpkd/internal/tensor"

// ReLU writes into persistent per-layer buffers (resized with the batch via
// tensor.Ensure) instead of cloning its input each call — part of the
// allocation-free training hot path. The returned matrices obey the
// engine-wide buffer contract: valid until the next call on the same layer.

// ReLU is the rectified linear activation max(0, x). It keeps no mask: its
// backward pass reads which outputs are nonzero from the output itself. In a
// Sequential, the layer before it may write that output (a BatchNorm's or a
// Residual's sweep, rectifying as it goes; see Sequential.Forward).
type ReLU struct {
	ready bool // out holds a train-mode forward's output
	out   *tensor.Matrix
	dx    *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := r.output(x.Rows, x.Cols, train)
	tensor.ReLUInto(out.Data, x.Data)
	return out
}

// output sizes the layer's output buffer for a forward of the given shape,
// which the caller then fills: Forward, or the fused sweep of the layer
// before.
func (r *ReLU) output(rows, cols int, train bool) *tensor.Matrix {
	r.out = tensor.Ensure(r.out, rows, cols)
	r.ready = train
	return r.out
}

// Backward passes the gradient where the forward output is nonzero and
// zeroes it where the output is +0 (a non-positive input).
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !r.ready {
		panic("nn: ReLU.Backward called without a train-mode Forward")
	}
	r.dx = tensor.Ensure(r.dx, dout.Rows, dout.Cols)
	tensor.ReLUGradInto(r.dx.Data, dout.Data, r.out.Data)
	return r.dx
}

// Params returns nil: ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }
