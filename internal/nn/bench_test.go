package nn_test

import (
	"testing"

	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Step benchmarks: the non-GEMM parts of one training step layer by layer at
// the training shape (batch 32, models.FeatureWidth columns), one residual
// block as the zoo runs it (its layer groups fused; see Sequential.Forward),
// a whole client private-training step and a whole server distillation
// step. nn cannot choose a kernel path — nothing outside internal/tensor can
// — so each runs on the loops this CPU was given and says which in its name;
// internal/tensor's BenchmarkRowOps has every loop on every path.

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

// BenchmarkBatchNormTrain is a train-mode BatchNorm forward and backward on
// its own, unfused (the zoo runs every BatchNorm fused with its neighbours:
// BenchmarkBlockTrain).
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

// BenchmarkReLUTrain is a train-mode ReLU forward and backward on its own,
// unfused; the backward reads the forward's output, not a mask.
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

// blockOperands is one residual block of the zoo at the training width,
// Residual(Dense→BatchNorm→ReLU→Dense→BatchNorm)→ReLU, whose Sequentials
// fuse every group they hold, and a batch of rows for it.
func blockOperands(rows int) (block *nn.Sequential, x, dout *tensor.Matrix) {
	rng := stats.NewRNG(1)
	w := models.FeatureWidth
	block = nn.NewSequential(nn.NewResidual(nn.NewSequential(
		nn.NewDense(rng, w, w), nn.NewBatchNorm(w), nn.NewReLU(),
		nn.NewDense(rng, w, w), nn.NewBatchNorm(w),
	)), nn.NewReLU())
	return block, tensor.Randn(rng, rows, w, 1), tensor.Randn(rng, rows, w, 0.1)
}

// BenchmarkBlockTrain is one residual block's train-mode forward and
// backward at batch 32: both products of each Dense, the fused
// bias/statistics, BatchNorm/ReLU and residual/ReLU sweeps, and the
// backward's BatchNorm sweeps and mask-free ReLU gradients.
func BenchmarkBlockTrain(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		block, x, dout := blockOperands(benchBatch)
		block.Forward(x, true) // first-use buffers
		block.Backward(dout)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block.Forward(x, true)
			block.Backward(dout)
		}
	})
}

// BenchmarkBlockInfer is one residual block's eval-mode forward over one
// 64-row inference block (infer.go): the bias folds into the BatchNorm apply
// sweep, which rectifies as it goes.
func BenchmarkBlockInfer(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		block, x, _ := blockOperands(64)
		block.Forward(x, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block.Forward(x, false)
		}
	})
}

// The step benchmarks' task: 32 input features, 10 classes.
const inputDim, classes = 32, 10

// stepOperands builds the named model and a batch for it: inputs, labels
// cycling through the classes, and a random stand-in for the prototypes of
// those labels.
func stepOperands(b *testing.B, model string) (net *nn.Network, x, target *tensor.Matrix, labels []int) {
	rng := stats.NewRNG(1)
	net, err := models.BuildNamed(rng, model, inputDim, classes)
	if err != nil {
		b.Fatal(err)
	}
	labels = make([]int, benchBatch)
	for i := range labels {
		labels[i] = i % classes
	}
	return net, tensor.Randn(rng, benchBatch, inputDim, 1), tensor.Randn(rng, benchBatch, models.FeatureWidth, 1), labels
}

// BenchmarkClientStep is one client private-training step as
// fl.TrainCEWithProto runs it (Eq. 16): ResNet20 on a batch of 32,
// ForwardSplit, cross-entropy plus ε times the prototype MSE, Backward and
// the Adam update, which leaves the gradients zero for the next step.
func BenchmarkClientStep(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		const eps = 0.5 // core.Config's default ε
		net, x, target, labels := stepOperands(b, "ResNet20")
		params := net.Params()
		opt := nn.NewAdam(1e-3)
		gradLogits := tensor.New(benchBatch, classes)
		gradFeat := tensor.New(benchBatch, models.FeatureWidth)
		step := func() {
			feats, logits := net.ForwardSplit(x)
			nn.SoftmaxCrossEntropyInto(gradLogits, logits, labels)
			nn.MSEInto(gradFeat, feats, target)
			gradFeat.Scale(eps)
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

// BenchmarkServerStep is one full server distillation step as
// fl.TrainServerPKD runs it when the lane is taken: ResNet56 on a batch of
// 32, ForwardSplit, the KL, cross-entropy and prototype-MSE losses, Backward
// and the Adam update, all on the calling goroutine.
func BenchmarkServerStep(b *testing.B) { benchServerStep(b, false) }

// BenchmarkServerStepLane is the same step with the lane attached, as
// fl.TrainServerPKD runs it when the lane is free: the weight gradients and
// Adam run on the second core. Its ratio to BenchmarkServerStep is the
// lane's gain; it is skipped at GOMAXPROCS 1, where the lane never attaches.
func BenchmarkServerStepLane(b *testing.B) { benchServerStep(b, true) }

// BenchmarkInfer is one eval-mode pass of ResNet56 over 300 rows, the size
// of the server's filter and test-accuracy forwards: "whole" is
// Forward(x, false) over the whole batch (what the benchmark's
// nn.infer_us_per_sample times), "blocked" is Logits in 64-row blocks on
// the calling goroutine, and "wide" is Logits with the back half of the
// blocks on the lane, as a server network runs it when the lane is free
// (skipped at GOMAXPROCS 1).
func BenchmarkInfer(b *testing.B) {
	onHostPath(b, func(b *testing.B) {
		const rows = 300
		x := tensor.Randn(stats.NewRNG(3), rows, inputDim, 1)
		for _, mode := range []string{"whole", "blocked", "wide"} {
			b.Run(mode, func(b *testing.B) {
				net, err := models.BuildNamed(stats.NewRNG(1), "ResNet56", inputDim, classes)
				if err != nil {
					b.Fatal(err)
				}
				pass := func() { net.Logits(x) }
				switch mode {
				case "whole":
					pass = func() { net.Forward(x, false) }
				case "wide":
					tr := nn.NewTrainer(net, nn.NewAdam(1e-3))
					if !tr.AttachLane() {
						b.Skip("the lane needs GOMAXPROCS >= 2 and must be free")
					}
					tr.Release()
				}
				pass() // first-use buffers, and the twin
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
			})
		}
	})
}

func benchServerStep(b *testing.B, lane bool) {
	onHostPath(b, func(b *testing.B) {
		const delta = 0.5
		net, x, target, labels := stepOperands(b, "ResNet56")
		tr := nn.NewTrainer(net, nn.NewAdam(1e-3))
		if lane {
			if !tr.AttachLane() {
				b.Skip("the lane needs GOMAXPROCS >= 2 and must be free")
			}
			defer tr.Release()
		}
		teacher := tensor.Randn(stats.NewRNG(2), benchBatch, classes, 1)
		for i := 0; i < teacher.Rows; i++ { // the teacher's distributions, as fl computes them once per call
			stats.SoftmaxTemp(teacher.Row(i), 1, teacher.Row(i))
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
			tr.Step(gradLogits, gradFeat)
		}
		step() // first-use buffers and optimizer state
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}
