package nn

import (
	"fmt"
	"math"

	"fedpkd/internal/tensor"
)

// BatchNorm is 1-D batch normalization over features: training batches are
// normalized with their own statistics while exponential running statistics
// accumulate for eval-mode forwards — exactly the component whose behaviour
// under non-IID federated averaging degrades weight-transfer methods
// (clients' running statistics diverge with their label skew, and the
// averaged statistics fit nobody). The CIFAR ResNets the paper trains have
// BatchNorm throughout, so the model zoo includes it.
//
// The running statistics are exposed as zero-gradient Params named
// "running_mean"/"running_var": optimizers never move them (their gradients
// stay zero), but FedAvg-family weight transfer averages and ships them,
// matching how real deployments serialize BN buffers with the model.
type BatchNorm struct {
	Dim      int
	Momentum float64 // running-stat update rate (default 0.1)
	Eps      float64

	gamma, beta             *Param
	runningMean, runningVar *Param

	// Persistent buffers and cached train-mode state for backward. out
	// stays nil while a ReLU follows in a Sequential, which takes the
	// output instead.
	out    *tensor.Matrix
	dx     *tensor.Matrix
	xhat   *tensor.Matrix
	invStd []float64 // per-feature 1/sqrt(var+eps) of the last normalization
	mean   []float64
	vari   []float64
	sumA   []float64 // per-feature sum of dxhat
	sumB   []float64 // per-feature sum of dxhat*xhat
	ready  bool      // a train-mode forward ran last
	// usedRunning marks a train-mode forward that had to fall back to the
	// running statistics (single-sample batch); its backward has no
	// batch-coupling terms.
	usedRunning bool

	gate laneGate
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm returns a batch-normalization layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	if dim <= 0 {
		panic(fmt.Sprintf("nn: BatchNorm dim must be positive, got %d", dim))
	}
	gamma := newParam("gamma", tensor.New(1, dim))
	gamma.Value.Fill(1)
	runningVar := newParam("running_var", tensor.New(1, dim))
	runningVar.Value.Fill(1)
	return &BatchNorm{
		Dim:         dim,
		Momentum:    0.1,
		Eps:         1e-5,
		gamma:       gamma,
		beta:        newParam("beta", tensor.New(1, dim)),
		runningMean: newParam("running_mean", tensor.New(1, dim)),
		runningVar:  runningVar,
	}
}

func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Forward normalizes the batch. In train mode it uses batch statistics and
// updates the running statistics; in eval mode it uses the running
// statistics.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return b.forward(x, nil, nil, train)
}

// forward is Forward with its neighbours in a Sequential folded into its
// sweeps (Sequential.Forward). A non-nil bias is the bias of the Dense layer
// whose product x is: the train-mode statistics sweep adds it to x in place
// first, and otherwise the apply sweep adds it as it reads x. A non-nil relu
// is the ReLU after this layer: the apply sweep rectifies and writes into
// its output, and this layer's own out is neither written nor allocated.
func (b *BatchNorm) forward(x *tensor.Matrix, bias []float64, relu *ReLU, train bool) *tensor.Matrix {
	b.gate.wait()
	if x.Cols != b.Dim {
		panic(fmt.Sprintf("nn: BatchNorm got %d features, want %d", x.Cols, b.Dim))
	}
	var out *tensor.Matrix
	if relu != nil {
		out = relu.output(x.Rows, x.Cols, train)
	} else {
		b.out = tensor.Ensure(b.out, x.Rows, x.Cols)
		out = b.out
	}
	gamma, beta := b.gamma.Value.Data, b.beta.Value.Data
	if !train || x.Rows == 1 {
		// Eval — or a degenerate single-sample train batch, which has no
		// usable batch statistics: normalize with the running statistics.
		// The per-feature 1/sqrt(var+eps) is computed once, not per row.
		b.ready = train
		b.usedRunning = train
		rm, rv := b.runningMean.Value.Data, b.runningVar.Value.Data
		b.invStd = ensureFloats(b.invStd, b.Dim)
		invStd := b.invStd
		for j := 0; j < b.Dim; j++ {
			invStd[j] = 1 / math.Sqrt(rv[j]+b.Eps)
		}
		var xhat *tensor.Matrix
		if train {
			b.xhat = tensor.Ensure(b.xhat, x.Rows, x.Cols)
			xhat = b.xhat
		}
		tensor.BatchNormApply(out, xhat, x, bias, rm, invStd, gamma, beta, relu != nil)
		return out
	}
	b.ready = true
	b.usedRunning = false

	// One fused sweep accumulates per-feature sum and sum of squares;
	// variance comes out as E[x²]−E[x]² (clamped at zero against rounding).
	// For normalized activations the cancellation error is far below Eps.
	m := float64(x.Rows)
	invBatch := 1 / m
	b.mean = ensureFloats(b.mean, b.Dim)
	b.vari = ensureFloats(b.vari, b.Dim)
	mean, variance := b.mean, b.vari
	for j := range mean {
		mean[j] = 0
		variance[j] = 0
	}
	tensor.AddColSumSq(mean, variance, x, bias)
	for j := range mean {
		mu := mean[j] * invBatch
		mean[j] = mu
		va := variance[j]*invBatch - mu*mu
		if va < 0 {
			va = 0
		}
		variance[j] = va
	}

	b.xhat = tensor.Ensure(b.xhat, x.Rows, x.Cols)
	b.invStd = ensureFloats(b.invStd, b.Dim)
	invStd := b.invStd
	for j := 0; j < b.Dim; j++ {
		invStd[j] = 1 / math.Sqrt(variance[j]+b.Eps)
	}
	tensor.BatchNormApply(out, b.xhat, x, nil, mean, invStd, gamma, beta, relu != nil)
	// Exponential running statistics.
	om, mom := 1-b.Momentum, b.Momentum
	rm, rv := b.runningMean.Value.Data, b.runningVar.Value.Data
	for j := 0; j < b.Dim; j++ {
		rm[j] = om*rm[j] + mom*mean[j]
		rv[j] = om*rv[j] + mom*variance[j]
	}
	return out
}

// Backward backpropagates through the batch normalization.
func (b *BatchNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !b.ready {
		panic("nn: BatchNorm.Backward called without a train-mode Forward")
	}
	b.dx = tensor.Ensure(b.dx, dout.Rows, dout.Cols)
	dx := b.dx
	gamma := b.gamma.Value.Data
	gGrad, bGrad := b.gamma.Grad.Data, b.beta.Grad.Data
	invStd := b.invStd

	if b.usedRunning {
		// Running-statistics normalization has no batch coupling: the
		// statistics are constants with respect to this input.
		for i := 0; i < dout.Rows; i++ {
			drow := dout.Row(i)
			xrow := b.xhat.Row(i)
			dxrow := dx.Row(i)
			for j := 0; j < b.Dim; j++ {
				gGrad[j] += drow[j] * xrow[j]
				bGrad[j] += drow[j]
				dxrow[j] = drow[j] * gamma[j] * invStd[j]
			}
		}
		return dx
	}

	// Accumulate parameter gradients and the per-feature reduction terms.
	b.sumA = ensureFloats(b.sumA, b.Dim)
	b.sumB = ensureFloats(b.sumB, b.Dim)
	sumDxhat, sumDxhatXhat := b.sumA, b.sumB
	for j := range sumDxhat {
		sumDxhat[j] = 0
		sumDxhatXhat[j] = 0
	}
	tensor.BatchNormGradSums(sumDxhat, sumDxhatXhat, gGrad, bGrad, dout, b.xhat, gamma)
	// dx = (1/m) * gamma/std * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)).
	tensor.BatchNormGradInput(dx, dout, b.xhat, gamma, sumDxhat, sumDxhatXhat, invStd)
	return dx
}

// Params returns gamma, beta, and the running statistics (the latter with
// permanently zero gradients; see the type comment).
func (b *BatchNorm) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runningMean, b.runningVar}
}
