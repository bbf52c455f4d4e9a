package fl

import (
	"fedpkd/internal/dataset"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// The training loops own small per-call workspaces (batch matrices, label
// slices, gradient buffers) that are resized in place across minibatches.
// The matrices come from the scratch arena (tensor.EnsureScratch) and go back
// to it on return, so together with the layers' persistent buffers a
// steady-state round performs zero matrix allocations, not one set per call.
// A Step joins every task that reads the batch or its gradients before it
// returns (nn's lane overlaps only Adam), so the workspaces go back before a
// lane-attached trainer is released. Each loop returns the number of
// minibatch steps it took, which the round hooks add to the run's trace.

// TrainCE runs plain minibatch cross-entropy training (Eq. 4).
func TrainCE(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int) (steps int) {
	tr := nn.NewTrainer(net, opt)
	var x, grad *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, d.Len(), batchSize) {
			var labels []int
			x, labels = dataset.GatherInto(tensor.EnsureScratch(x, len(idx), d.X.Cols), yb, d, idx)
			logits := net.Forward(x, true)
			grad = tensor.EnsureScratch(grad, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(grad, logits, labels)
			tr.Step(grad, nil)
			steps++
		}
	}
	releaseAll(x, grad)
	return steps
}

// TrainCEProx runs FedProx local training: cross-entropy plus the proximal
// term (mu/2)·‖w − w_global‖². ref is the flattened global weights.
func TrainCEProx(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int, mu float64, ref []float64) int {
	return TrainCE(net, &proximal{Optimizer: opt, mu: mu, ref: ref}, d, rng, epochs, batchSize)
}

// proximal is FedProx's update: it adds the proximal gradient mu·(w − ref)
// to every param's gradient, then steps the wrapped optimizer.
type proximal struct {
	nn.Optimizer
	mu  float64
	ref []float64
}

func (p *proximal) Step(params []*nn.Param) {
	off := 0
	for _, q := range params {
		for i := range q.Value.Data {
			q.Grad.Data[i] += p.mu * (q.Value.Data[i] - p.ref[off+i])
		}
		off += len(q.Value.Data)
	}
	p.Optimizer.Step(params)
}

// TrainCEWithProto runs FedPKD client private training for rounds t >= 1
// (Eq. 16): cross-entropy on local data plus ε·MSE between the sample's
// features and the global prototype of its true class.
func TrainCEWithProto(net *nn.Network, opt nn.Optimizer, d *dataset.Dataset, rng *stats.RNG, epochs, batchSize int, protos *proto.Set, eps float64) (steps int) {
	if protos == nil || protos.Len() == 0 || eps == 0 {
		return TrainCE(net, opt, d, rng, epochs, batchSize)
	}
	tr := nn.NewTrainer(net, opt)
	var x, gradLogits, target, gradFeat *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, d.Len(), batchSize) {
			var labels []int
			x, labels = dataset.GatherInto(tensor.EnsureScratch(x, len(idx), d.X.Cols), yb, d, idx)
			feats, logits := net.ForwardSplit(x)
			gradLogits = tensor.EnsureScratch(gradLogits, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradLogits, logits, labels)
			target = protos.TargetMatrixInto(tensor.EnsureScratch(target, len(labels), protos.Dim), labels, feats)
			gradFeat = tensor.EnsureScratch(gradFeat, feats.Rows, feats.Cols)
			nn.MSEInto(gradFeat, feats, target)
			gradFeat.Scale(eps)
			tr.Step(gradLogits, gradFeat)
			steps++
		}
	}
	releaseAll(x, gradLogits, target, gradFeat)
	return steps
}

// TrainDistill runs distillation training on (a subset of) the public set
// (Eq. 15 for clients; also the δ=1 special case of the server objective):
// gamma·KL(student ‖ teacher logits) + (1−gamma)·CE(student, pseudo-labels).
// X holds the public samples, teacher the row-aligned teacher logits, and
// pseudo the row-aligned pseudo-labels.
func TrainDistill(net *nn.Network, opt nn.Optimizer, x, teacher *tensor.Matrix, pseudo []int, rng *stats.RNG, epochs, batchSize int, gamma, temp float64) int {
	return distill(net, nn.NewTrainer(net, opt), x, teacher, pseudo, rng, epochs, batchSize, gamma, temp)
}

// TrainServerDistill is TrainDistill for a server model trained in
// Aggregate, which runs alone: its steps use the lane when it is free, with
// identical bits (see serverTrainer).
func TrainServerDistill(net *nn.Network, opt nn.Optimizer, x, teacher *tensor.Matrix, pseudo []int, rng *stats.RNG, epochs, batchSize int, gamma, temp float64) int {
	tr := serverTrainer(net, opt)
	defer tr.Release()
	return distill(net, tr, x, teacher, pseudo, rng, epochs, batchSize, gamma, temp)
}

func distill(net *nn.Network, tr *nn.Trainer, x, teacher *tensor.Matrix, pseudo []int, rng *stats.RNG, epochs, batchSize int, gamma, temp float64) (steps int) {
	probs := teacherProbs(teacher, temp)
	defer tensor.Release(probs)
	var xb, tb, gradKL, gradCE *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, x.Rows, batchSize) {
			xb = dataset.GatherRowsInto(tensor.EnsureScratch(xb, len(idx), x.Cols), x, idx)
			tb = dataset.GatherRowsInto(tensor.EnsureScratch(tb, len(idx), probs.Cols), probs, idx)
			labels := yb[:len(idx)]
			for i, j := range idx {
				labels[i] = pseudo[j]
			}
			logits := net.Forward(xb, true)
			gradKL = tensor.EnsureScratch(gradKL, logits.Rows, logits.Cols)
			nn.KLDistillInto(gradKL, logits, tb, temp)
			gradCE = tensor.EnsureScratch(gradCE, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradCE, logits, labels)
			tr.Step(gradKL.Scale(gamma).AddScaled(1-gamma, gradCE), nil)
			steps++
		}
	}
	releaseAll(xb, tb, gradKL, gradCE)
	return steps
}

// TrainServerPKD runs the FedPKD server update (Eqs. 11-13) on the filtered
// public subset: δ·(KL + CE) + (1−δ)·MSE(features, prototype of the
// pseudo-label).
func TrainServerPKD(net *nn.Network, opt nn.Optimizer, x, teacher *tensor.Matrix, pseudo []int, protos *proto.Set, rng *stats.RNG, epochs, batchSize int, delta, temp float64) (steps int) {
	tr := serverTrainer(net, opt)
	defer tr.Release()
	probs := teacherProbs(teacher, temp)
	defer tensor.Release(probs)
	var xb, tb, gradKL, gradCE, target, gradFeat *tensor.Matrix
	yb := make([]int, batchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range dataset.Batches(rng, x.Rows, batchSize) {
			xb = dataset.GatherRowsInto(tensor.EnsureScratch(xb, len(idx), x.Cols), x, idx)
			tb = dataset.GatherRowsInto(tensor.EnsureScratch(tb, len(idx), probs.Cols), probs, idx)
			labels := yb[:len(idx)]
			for i, j := range idx {
				labels[i] = pseudo[j]
			}
			feats, logits := net.ForwardSplit(xb)
			gradKL = tensor.EnsureScratch(gradKL, logits.Rows, logits.Cols)
			nn.KLDistillInto(gradKL, logits, tb, temp)
			gradCE = tensor.EnsureScratch(gradCE, logits.Rows, logits.Cols)
			nn.SoftmaxCrossEntropyInto(gradCE, logits, labels)
			gradLogits := gradKL.Scale(delta).AddScaled(delta, gradCE)

			var dfeat *tensor.Matrix
			if protos != nil && protos.Len() > 0 && delta < 1 {
				target = protos.TargetMatrixInto(tensor.EnsureScratch(target, len(labels), protos.Dim), labels, feats)
				gradFeat = tensor.EnsureScratch(gradFeat, feats.Rows, feats.Cols)
				nn.MSEInto(gradFeat, feats, target)
				gradFeat.Scale(1 - delta)
				dfeat = gradFeat
			}
			tr.Step(gradLogits, dfeat)
			steps++
		}
	}
	releaseAll(xb, tb, gradKL, gradCE, target, gradFeat)
	return steps
}

// releaseAll returns a training loop's workspaces to the arena; a workspace
// the loop never took is nil, which Release ignores.
func releaseAll(ms ...*tensor.Matrix) {
	for _, m := range ms {
		tensor.Release(m)
	}
}

// teacherProbs returns softmax(teacher_i/temp) of every teacher row, the
// distribution KLDistillInto reads, in a scratch matrix the caller
// releases. The teacher logits are fixed for a whole training call, so their
// distributions are computed once per call and gathered per batch.
func teacherProbs(teacher *tensor.Matrix, temp float64) *tensor.Matrix {
	probs := tensor.GetScratch(teacher.Rows, teacher.Cols)
	for i := 0; i < teacher.Rows; i++ {
		stats.SoftmaxTemp(teacher.Row(i), temp, probs.Row(i))
	}
	return probs
}

// serverTrainer returns a trainer with the lane attached if it is free.
// Server training runs in Aggregate, alone, so the lane takes the core the
// client fan-out would otherwise use; client loops never attach it.
func serverTrainer(net *nn.Network, opt nn.Optimizer) *nn.Trainer {
	tr := nn.NewTrainer(net, opt)
	tr.AttachLane()
	return tr
}

// Accuracy evaluates a network on a labeled dataset.
func Accuracy(net *nn.Network, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	return stats.Accuracy(net.Predict(d.X), d.Labels)
}

// localAccuracy scores net on a local test set: the draws it predicts right
// over all draws, each distinct row predicted once and counted as often as
// it was drawn. The two integers are those the drawn multiset gives, so the
// quotient has its bits.
func localAccuracy(net *nn.Network, t *dataset.LocalTest) float64 {
	if t.Rows.Len() == 0 {
		return 0
	}
	correct, total := 0, 0
	for i, p := range net.Predict(t.Rows.X) {
		total += t.Counts[i]
		if p == t.Rows.Labels[i] {
			correct += t.Counts[i]
		}
	}
	return float64(correct) / float64(total)
}

// MeanClientAccuracy evaluates each client model on its own local test set
// and returns the mean — the paper's C_acc. The round's workers are parked
// when it runs and every client owns its model, so clients are evaluated
// through ForEachClient; the accuracies are summed in client order, which
// keeps the mean the bits of a serial loop at any fan-out width. A panic in
// one client's evaluation is raised again here.
func MeanClientAccuracy(nets []*nn.Network, localTests []*dataset.LocalTest) float64 {
	if len(nets) == 0 {
		return 0
	}
	accs := make([]float64, len(nets))
	if err := ForEachClient(len(nets), func(c int) error {
		accs[c] = localAccuracy(nets[c], localTests[c])
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
