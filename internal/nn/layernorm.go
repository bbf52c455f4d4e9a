package nn

import (
	"fmt"
	"math"

	"fedpkd/internal/tensor"
)

// LayerNorm normalizes each sample across its features (Ba et al., 2016).
// Unlike BatchNorm it keeps no running statistics, so weight averaging is
// statistics-free — the ablation comparing the two normalizations isolates
// how much of FedAvg's non-IID degradation is BatchNorm-statistic
// divergence.
type LayerNorm struct {
	Dim int
	Eps float64

	gamma, beta *Param

	// Persistent buffers and cached train-mode state.
	out   *tensor.Matrix
	dx    *tensor.Matrix
	xhat  *tensor.Matrix
	std   []float64 // per-row sqrt(var+eps)
	ready bool      // a train-mode forward ran last

	gate laneGate
}

var _ Layer = (*LayerNorm)(nil)

// NewLayerNorm returns a layer-normalization layer over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	if dim <= 0 {
		panic(fmt.Sprintf("nn: LayerNorm dim must be positive, got %d", dim))
	}
	gamma := newParam("gamma", tensor.New(1, dim))
	gamma.Value.Fill(1)
	return &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		gamma: gamma,
		beta:  newParam("beta", tensor.New(1, dim)),
	}
}

// Forward normalizes each row to zero mean and unit variance, then applies
// the affine transform.
func (l *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	l.gate.wait()
	if x.Cols != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm got %d features, want %d", x.Cols, l.Dim))
	}
	l.out = tensor.Ensure(l.out, x.Rows, x.Cols)
	out := l.out
	var xhat *tensor.Matrix
	var std []float64
	if train {
		l.xhat = tensor.Ensure(l.xhat, x.Rows, x.Cols)
		l.std = ensureFloats(l.std, x.Rows)
		xhat, std = l.xhat, l.std
	}
	l.ready = train
	n := float64(l.Dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= n
		var variance float64
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= n
		s := math.Sqrt(variance + l.Eps)
		orow := out.Row(i)
		for j, v := range row {
			h := (v - mean) / s
			orow[j] = l.gamma.Value.Data[j]*h + l.beta.Value.Data[j]
			if train {
				xhat.Set(i, j, h)
			}
		}
		if train {
			std[i] = s
		}
	}
	return out
}

// Backward backpropagates through the per-row normalization.
func (l *LayerNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !l.ready {
		panic("nn: LayerNorm.Backward called without a train-mode Forward")
	}
	n := float64(l.Dim)
	l.dx = tensor.Ensure(l.dx, dout.Rows, dout.Cols)
	dx := l.dx
	for i := 0; i < dout.Rows; i++ {
		drow := dout.Row(i)
		xrow := l.xhat.Row(i)
		dxrow := dx.Row(i)
		var sumDxhat, sumDxhatXhat float64
		for j := 0; j < l.Dim; j++ {
			dxhat := drow[j] * l.gamma.Value.Data[j]
			sumDxhat += dxhat
			sumDxhatXhat += dxhat * xrow[j]
			l.gamma.Grad.Data[j] += drow[j] * xrow[j]
			l.beta.Grad.Data[j] += drow[j]
		}
		for j := 0; j < l.Dim; j++ {
			dxhat := drow[j] * l.gamma.Value.Data[j]
			dxrow[j] = (dxhat*n - sumDxhat - xrow[j]*sumDxhatXhat) / (n * l.std[i])
		}
	}
	return dx
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }
