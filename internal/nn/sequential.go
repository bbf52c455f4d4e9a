package nn

import "fedpkd/internal/tensor"

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	Layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential returns a sequential container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the layers front to back.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers back to front.
func (s *Sequential) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params concatenates the parameters of all layers in order.
func (s *Sequential) Params() []*Param {
	var params []*Param
	for _, l := range s.Layers {
		params = append(params, l.Params()...)
	}
	return params
}

// Residual wraps an inner layer F with an identity skip connection:
// y = x + F(x). The inner layer must preserve width. The skip sums land in
// persistent buffers (the inner layer's output may be its own reused
// buffer, so the sum cannot be formed in place).
type Residual struct {
	Inner Layer

	out *tensor.Matrix
	dx  *tensor.Matrix
}

var _ Layer = (*Residual)(nil)

// NewResidual returns a residual wrapper around inner.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + Inner(x).
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := r.Inner.Forward(x, train)
	r.out = tensor.Ensure(r.out, out.Rows, out.Cols)
	tensor.AddInto(r.out.Data, out.Data, x.Data)
	return r.out
}

// Backward routes the gradient through both the skip path and the inner
// layer.
func (r *Residual) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := r.Inner.Backward(dout)
	r.dx = tensor.Ensure(r.dx, dx.Rows, dx.Cols)
	tensor.AddInto(r.dx.Data, dx.Data, dout.Data)
	return r.dx
}

// Params returns the inner layer's parameters.
func (r *Residual) Params() []*Param { return r.Inner.Params() }
