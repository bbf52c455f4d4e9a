package nn_test

import (
	"testing"

	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Step benchmarks: the non-GEMM parts of one training step layer by layer at
// the training shape (batch 32, models.FeatureWidth columns), and a whole
// server distillation step. nn cannot choose a kernel path — nothing outside
// internal/tensor can — so each runs on the loops this CPU was given and says
// which in its name; internal/tensor's BenchmarkRowOps has every loop on both.

const benchBatch = 32

// onHostPath runs fn as a sub-benchmark named after the kernel path in use.
func onHostPath(b *testing.B, fn func(b *testing.B)) {
	b.Run(tensor.ReadKernelStats().Path, fn)
}

func benchOperands() (rng *stats.RNG, x, dout *tensor.Matrix) {
	rng = stats.NewRNG(1)
	return rng, tensor.Randn(rng, benchBatch, models.FeatureWidth, 1), tensor.Randn(rng, benchBatch, models.FeatureWidth, 0.1)
}

// BenchmarkAdamStep is one Adam update of a hidden Dense layer's parameters
// (a 48x48 weight and its bias).
func BenchmarkAdamStep(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		rng, x, dout := benchOperands()
		d := nn.NewDense(rng, models.FeatureWidth, models.FeatureWidth)
		d.Forward(x, true)
		d.Backward(dout)
		opt := nn.NewAdam(1e-3)
		params := d.Params()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Step(params)
		}
	})
}

// BenchmarkBatchNormTrain is a train-mode BatchNorm forward and backward.
func BenchmarkBatchNormTrain(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		_, x, dout := benchOperands()
		bn := nn.NewBatchNorm(models.FeatureWidth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bn.Forward(x, true)
			bn.Backward(dout)
		}
	})
}

// BenchmarkReLUTrain is a train-mode ReLU forward (value and mask) and
// backward.
func BenchmarkReLUTrain(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		_, x, dout := benchOperands()
		relu := nn.NewReLU()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relu.Forward(x, true)
			relu.Backward(dout)
		}
	})
}

// BenchmarkDenseBias is the part of a Dense layer that is not a product: the
// bias broadcast of its forward pass and the bias gradient of its backward.
func BenchmarkDenseBias(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		_, out, dout := benchOperands()
		bias := make([]float64, models.FeatureWidth)
		grad := make([]float64, models.FeatureWidth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.AddRowVector(bias)
			tensor.AddColSums(grad, dout)
		}
	})
}

// BenchmarkServerStep is one full server distillation step as
// fl.TrainServerPKD runs it: ResNet56 on a batch of 32, ForwardSplit, the KL,
// cross-entropy and prototype-MSE losses, Backward and the Adam update.
func BenchmarkServerStep(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		const inputDim, classes, delta = 32, 10, 0.5
		rng := stats.NewRNG(1)
		net, err := models.BuildNamed(rng, "ResNet56", inputDim, classes)
		if err != nil {
			b.Fatal(err)
		}
		params := net.Params()
		opt := nn.NewAdam(1e-3)
		x := tensor.Randn(rng, benchBatch, inputDim, 1)
		teacher := tensor.Randn(rng, benchBatch, classes, 1)
		target := tensor.Randn(rng, benchBatch, models.FeatureWidth, 1)
		labels := make([]int, benchBatch)
		for i := range labels {
			labels[i] = i % classes
		}
		gradKL, gradCE := tensor.New(benchBatch, classes), tensor.New(benchBatch, classes)
		gradFeat := tensor.New(benchBatch, models.FeatureWidth)
		step := func() {
			feats, logits := net.ForwardSplit(x)
			nn.KLDistillInto(gradKL, logits, teacher, 1)
			nn.SoftmaxCrossEntropyInto(gradCE, logits, labels)
			gradLogits := gradKL.Scale(delta).AddScaled(delta, gradCE)
			nn.MSEInto(gradFeat, feats, target)
			gradFeat.Scale(1 - delta)
			nn.ZeroGrads(params)
			net.Backward(gradLogits, gradFeat)
			opt.Step(params)
		}
		step() // first-use buffers and optimizer state
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}
