package fl

import (
	"fedpkd/internal/dataset"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// The training loops own small per-call workspaces (batch matrices, label
// slices, gradient buffers) that are resized in place across minibatches,
// so together with the layers' persistent buffers a steady-state epoch
// performs zero matrix allocations.

// TrainCE runs plain minibatch cross-entropy training (Eq. 4).
func TrainCE(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int) {
	params := net.Params()
	var x, grad *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, d.Len(), batchSize) {
			var labels []int
			x, labels = dataset.GatherInto(x, yb, d, idx)
			logits := net.Forward(x, true)
			grad = tensor.Ensure(grad, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(grad, logits, labels)
			nn.ZeroGrads(params)
			net.Backward(grad, nil)
			opt.Step(params)
			obs.AddBatches(1)
		}
	}
}

// TrainCEProx runs FedProx local training: cross-entropy plus the proximal
// term (mu/2)·‖w − w_global‖². ref is the flattened global weights.
func TrainCEProx(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int, mu float64, ref []float64) {
	params := net.Params()
	var x, grad *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, d.Len(), batchSize) {
			var labels []int
			x, labels = dataset.GatherInto(x, yb, d, idx)
			logits := net.Forward(x, true)
			grad = tensor.Ensure(grad, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(grad, logits, labels)
			nn.ZeroGrads(params)
			net.Backward(grad, nil)
			// Proximal gradient: mu * (w - w_ref).
			off := 0
			for _, p := range params {
				for i := range p.Value.Data {
					p.Grad.Data[i] += mu * (p.Value.Data[i] - ref[off+i])
				}
				off += len(p.Value.Data)
			}
			opt.Step(params)
			obs.AddBatches(1)
		}
	}
}

// TrainCEWithProto runs FedPKD client private training for rounds t >= 1
// (Eq. 16): cross-entropy on local data plus ε·MSE between the sample's
// features and the global prototype of its true class.
func TrainCEWithProto(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int, protos *proto.Set, eps float64) {
	if protos == nil || protos.Len() == 0 || eps == 0 {
		TrainCE(net, opt, d, rng, epochs, batchSize)
		return
	}
	params := net.Params()
	var x, gradLogits, target, gradFeat *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, d.Len(), batchSize) {
			var labels []int
			x, labels = dataset.GatherInto(x, yb, d, idx)
			feats, logits := net.ForwardSplit(x)
			gradLogits = tensor.Ensure(gradLogits, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradLogits, logits, labels)
			target = protos.TargetMatrixInto(target, labels, feats)
			gradFeat = tensor.Ensure(gradFeat, feats.Rows, feats.Cols)
			nn.MSEInto(gradFeat, feats, target)
			gradFeat.Scale(eps)
			nn.ZeroGrads(params)
			net.Backward(gradLogits, gradFeat)
			opt.Step(params)
			obs.AddBatches(1)
		}
	}
}

// TrainDistill runs distillation training on (a subset of) the public set
// (Eq. 15 for clients; also the δ=1 special case of the server objective):
// gamma·KL(student ‖ teacher logits) + (1−gamma)·CE(student, pseudo-labels).
// X holds the public samples, teacher the row-aligned teacher logits, and
// pseudo the row-aligned pseudo-labels.
func TrainDistill(net *nn.Network, opt nn.Optimizer, x, teacher *tensor.Matrix, pseudo []int, rng *stats.RNG, epochs, batchSize int, gamma, temp float64) {
	params := net.Params()
	var xb, tb, gradKL, gradCE *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, x.Rows, batchSize) {
			xb = dataset.GatherRowsInto(xb, x, idx)
			tb = dataset.GatherRowsInto(tb, teacher, idx)
			labels := yb[:len(idx)]
			for i, j := range idx {
				labels[i] = pseudo[j]
			}
			logits := net.Forward(xb, true)
			gradKL = tensor.Ensure(gradKL, logits.Rows, logits.Cols)
			nn.KLDistillInto(gradKL, logits, tb, temp)
			gradCE = tensor.Ensure(gradCE, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradCE, logits, labels)
			grad := gradKL.Scale(gamma).AddScaled(1-gamma, gradCE)
			nn.ZeroGrads(params)
			net.Backward(grad, nil)
			opt.Step(params)
			obs.AddBatches(1)
		}
	}
}

// TrainServerPKD runs the FedPKD server update (Eqs. 11-13) on the filtered
// public subset: δ·(KL + CE) + (1−δ)·MSE(features, prototype of the
// pseudo-label).
func TrainServerPKD(net *nn.Network, opt nn.Optimizer, x, teacher *tensor.Matrix, pseudo []int, protos *proto.Set, rng *stats.RNG, epochs, batchSize int, delta, temp float64) {
	params := net.Params()
	var xb, tb, gradKL, gradCE, target, gradFeat *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, x.Rows, batchSize) {
			xb = dataset.GatherRowsInto(xb, x, idx)
			tb = dataset.GatherRowsInto(tb, teacher, idx)
			labels := yb[:len(idx)]
			for i, j := range idx {
				labels[i] = pseudo[j]
			}
			feats, logits := net.ForwardSplit(xb)
			gradKL = tensor.Ensure(gradKL, logits.Rows, logits.Cols)
			nn.KLDistillInto(gradKL, logits, tb, temp)
			gradCE = tensor.Ensure(gradCE, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradCE, logits, labels)
			gradLogits := gradKL.Scale(delta).AddScaled(delta, gradCE)

			var dfeat *tensor.Matrix
			if protos != nil && protos.Len() > 0 && delta < 1 {
				target = protos.TargetMatrixInto(target, labels, feats)
				gradFeat = tensor.Ensure(gradFeat, feats.Rows, feats.Cols)
				nn.MSEInto(gradFeat, feats, target)
				gradFeat.Scale(1 - delta)
				dfeat = gradFeat
			}
			nn.ZeroGrads(params)
			net.Backward(gradLogits, dfeat)
			opt.Step(params)
			obs.AddBatches(1)
		}
	}
}

// Accuracy evaluates a network on a labeled dataset.
func Accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	return stats.Accuracy(net.Predict(d.X), d.Labels)
}

// MeanClientAccuracy evaluates each client model on its own local test set
// and returns the mean — the paper's C_acc. The round's workers are parked
// when it runs and every client owns its model, so clients are evaluated
// through ForEachClient; the accuracies are summed in client order, which
// keeps the mean the bits of a serial loop at any fan-out width. A panic in
// one client's evaluation is raised again here.
func MeanClientAccuracy(nets []*nn.Network, localTests []*dataset.Dataset) float64 {
	if len(nets) == 0 {
		return 0
	}
	accs := make([]float64, len(nets))
	if err := ForEachClient(len(nets), func(c int) error {
		accs[c] = Accuracy(nets[c], localTests[c])
		return nil
	}); err != nil {
		panic(err)
	}
	var sum float64
	for _, acc := range accs {
		sum += acc
	}
	return sum / float64(len(nets))
}
