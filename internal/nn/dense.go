package nn

import (
	"math"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b.
//
// The layer owns persistent output and input-gradient buffers that are
// resized (not reallocated) as the batch changes, so steady-state training
// performs zero matrix allocations. Forward/Backward results are therefore
// only valid until the next call on the same layer — the engine-wide buffer
// contract documented on Layer.
type Dense struct {
	In, Out int

	w *Param // In x Out
	b *Param // 1 x Out

	x   *tensor.Matrix // cached input from the last train-mode forward
	out *tensor.Matrix // persistent forward output buffer
	dx  *tensor.Matrix // persistent input-gradient buffer
}

var _ Layer = (*Dense)(nil)

// NewDense returns a dense layer with He-initialized weights, appropriate
// for the ReLU-family activations used throughout the model zoo.
func NewDense(rng *stats.RNG, in, out int) *Dense {
	std := math.Sqrt(2 / float64(in))
	return &Dense{
		In:  in,
		Out: out,
		w:   newParam("W", tensor.Randn(rng, in, out, std)),
		b:   newParam("b", tensor.New(1, out)),
	}
}

// Forward computes xW + b.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.x = x
	} else {
		d.x = nil
	}
	d.out = tensor.Ensure(d.out, x.Rows, d.Out)
	tensor.MatMulInto(d.out, x, d.w.Value)
	d.out.AddRowVector(d.b.Value.Data)
	return d.out
}

// Backward accumulates dW = xᵀ·dout and db = Σrows(dout), and returns
// dx = dout·Wᵀ. Both products run through the fused/pooled kernels: the
// weight gradient accumulates in place and the input gradient reuses the
// layer's buffer.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward called without a train-mode Forward")
	}
	tensor.MatMulTNAccInto(d.w.Grad, d.x, dout)
	tensor.AddColSums(d.b.Grad.Data, dout)
	d.dx = tensor.Ensure(d.dx, dout.Rows, d.In)
	tensor.MatMulNTInto(d.dx, dout, d.w.Value)
	return d.dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
