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

// Forward runs the layers front to back, each adjacent group below as one
// sweep per pass over the block instead of one per layer:
//
//   - Dense→BatchNorm: the Dense bias broadcast folds into the BatchNorm's
//     statistics sweep (train) or its apply sweep (eval, one-row batches).
//     When a ReLU follows, the apply sweep rectifies and writes the ReLU's
//     output.
//   - Residual→ReLU: the skip add rectifies and writes the ReLU's output.
//
// Every element sees the expressions of the layers run one at a time, in
// their order, so the result has their bits; each layer keeps the state its
// Backward reads, and a layer whose output a fused sweep skips never
// allocates it.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	ls := s.Layers
	for i := 0; i < len(ls); i++ {
		switch l := ls[i].(type) {
		case *Dense:
			if bn, ok := layerAt(ls, i+1).(*BatchNorm); ok {
				relu, _ := layerAt(ls, i+2).(*ReLU)
				x = bn.forward(l.product(x, train), l.b.Value.Data, relu, train)
				i++
				if relu != nil {
					i++
				}
				continue
			}
		case *Residual:
			if relu, ok := layerAt(ls, i+1).(*ReLU); ok {
				x = l.forward(x, relu, train)
				i++
				continue
			}
		}
		x = ls[i].Forward(x, train)
	}
	return x
}

// layerAt returns ls[i], or nil past the end.
func layerAt(ls []Layer, i int) Layer {
	if i < len(ls) {
		return ls[i]
	}
	return nil
}

// Backward runs the layers back to front.
func (s *Sequential) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// backwardBody is Backward for a network's body, whose first layer's input
// gradient would be the gradient of the network's input, which nothing reads:
// a Dense there accumulates its parameter gradients and computes no input
// gradient. A body led by any other layer runs Backward.
func (s *Sequential) backwardBody(dout *tensor.Matrix) {
	stem, ok := layerAt(s.Layers, 0).(*Dense)
	if !ok {
		s.Backward(dout)
		return
	}
	for i := len(s.Layers) - 1; i > 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	stem.backwardParams(dout)
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
// y = F(x) + x. The inner layer must preserve width. The skip sums land in
// persistent buffers (the inner layer's output may be its own reused
// buffer, so the sum cannot be formed in place); out stays nil while a ReLU
// follows in a Sequential, whose output the sum goes to instead.
type Residual struct {
	Inner Layer

	out *tensor.Matrix
	dx  *tensor.Matrix
}

var _ Layer = (*Residual)(nil)

// NewResidual returns a residual wrapper around inner.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes Inner(x) + x.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return r.forward(x, nil, train)
}

// forward is Forward with, when relu is not nil, the ReLU after it folded
// in: the rectified sum goes to the ReLU's output (Sequential.Forward).
func (r *Residual) forward(x *tensor.Matrix, relu *ReLU, train bool) *tensor.Matrix {
	inner := r.Inner.Forward(x, train)
	if relu != nil {
		out := relu.output(inner.Rows, inner.Cols, train)
		tensor.AddReLUInto(out.Data, inner.Data, x.Data)
		return out
	}
	r.out = tensor.Ensure(r.out, inner.Rows, inner.Cols)
	tensor.AddInto(r.out.Data, inner.Data, x.Data)
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
