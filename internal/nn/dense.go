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

	gate laneGate
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
	return d.product(x, train).AddRowVector(d.b.Value.Data)
}

// product computes xW without the bias, into the layer's output buffer.
// Forward adds the bias next; in a Dense→BatchNorm group (Sequential.Forward)
// the BatchNorm's sweep adds it instead.
func (d *Dense) product(x *tensor.Matrix, train bool) *tensor.Matrix {
	d.gate.wait()
	if train {
		d.x = x
	} else {
		d.x = nil
	}
	d.out = tensor.Ensure(d.out, x.Rows, d.Out)
	tensor.MatMulInto(d.out, x, d.w.Value)
	return d.out
}

// Backward accumulates dW = xᵀ·dout and db = Σrows(dout), and returns
// dx = dout·Wᵀ. Both products run through the fused/pooled kernels: the
// weight gradient accumulates in place and the input gradient reuses the
// layer's buffer. With a lane attached the gradients go to it, and the
// caller's product overlaps them.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d.backwardParams(dout)
	d.dx = tensor.Ensure(d.dx, dout.Rows, d.In)
	tensor.MatMulNTInto(d.dx, dout, d.w.Value)
	return d.dx
}

// backwardParams is Backward without the input gradient: it accumulates dW
// and db, or posts them to the lane. A network's stem stops here
// (Sequential.backwardBody), because nothing reads the gradient of the
// network's input.
func (d *Dense) backwardParams(dout *tensor.Matrix) {
	if d.x == nil {
		panic("nn: Dense.Backward called without a train-mode Forward")
	}
	if d.gate.l != nil {
		d.gate.l.post(laneTask{d: d, dout: dout})
	} else {
		d.accumulateGrads(dout)
	}
}

// accumulateGrads adds xᵀ·dout to dW and dout's column sums to db.
func (d *Dense) accumulateGrads(dout *tensor.Matrix) {
	tensor.MatMulTNAccInto(d.w.Grad, d.x, dout)
	tensor.AddColSums(d.b.Grad.Data, dout)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
