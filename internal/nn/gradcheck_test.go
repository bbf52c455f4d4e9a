package nn

import (
	"math"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// numericalGrad estimates d(loss)/d(vec[i]) by central differences, where
// loss is recomputed via f after each perturbation.
func numericalGrad(vec []float64, f func() float64) []float64 {
	const h = 1e-5
	grad := make([]float64, len(vec))
	for i := range vec {
		orig := vec[i]
		vec[i] = orig + h
		lp := f()
		vec[i] = orig - h
		lm := f()
		vec[i] = orig
		grad[i] = (lp - lm) / (2 * h)
	}
	return grad
}

// checkLayerGradients verifies a layer's analytic input and parameter
// gradients against finite differences, using sum-of-squares/2 of the output
// as the loss (so dL/dout == out).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Matrix, tol float64) {
	t.Helper()

	loss := func() float64 {
		out := layer.Forward(x, false)
		var s float64
		for _, v := range out.Data {
			s += v * v
		}
		return s / 2
	}

	// Analytic pass.
	out := layer.Forward(x, true)
	ZeroGrads(layer.Params())
	dx := layer.Backward(out.Clone())

	// Input gradient.
	numDX := numericalGrad(x.Data, loss)
	for i := range numDX {
		if math.Abs(numDX[i]-dx.Data[i]) > tol {
			t.Errorf("input grad[%d]: analytic %v, numeric %v", i, dx.Data[i], numDX[i])
		}
	}

	// Parameter gradients.
	for pi, p := range layer.Params() {
		numPG := numericalGrad(p.Value.Data, loss)
		for i := range numPG {
			if math.Abs(numPG[i]-p.Grad.Data[i]) > tol {
				t.Errorf("param %d (%s) grad[%d]: analytic %v, numeric %v", pi, p.Name, i, p.Grad.Data[i], numPG[i])
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := stats.NewRNG(1)
	layer := NewDense(rng, 4, 3)
	x := tensor.Randn(rng, 5, 4, 1)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := stats.NewRNG(2)
	x := tensor.Randn(rng, 4, 6, 1)
	// Nudge entries away from 0 so finite differences don't cross the kink.
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.1
		}
		return v
	})
	checkLayerGradients(t, NewReLU(), x, 1e-6)
}

// TestLeakyReLUGradients checks ReLU behind the Dense it rectifies, the
// models' stem shape: the gradient reaches the weights through the mask.
func TestLeakyReLUGradients(t *testing.T) {
	rng := stats.NewRNG(3)
	checkLayerGradients(t, NewSequential(NewDense(rng, 6, 5), NewReLU()), tensor.Randn(rng, 4, 6, 1), 1e-6)
}

// TestTanhGradients checks a residual block whose inner path rectifies a
// normalized activation, Dense→LayerNorm→ReLU→Dense.
func TestTanhGradients(t *testing.T) {
	rng := stats.NewRNG(4)
	block := NewResidual(NewSequential(
		NewDense(rng, 5, 5),
		NewLayerNorm(5),
		NewReLU(),
		NewDense(rng, 5, 5),
	))
	checkLayerGradients(t, block, tensor.Randn(rng, 3, 5, 1), 1e-5)
}

func TestSequentialGradients(t *testing.T) {
	rng := stats.NewRNG(5)
	seq := NewSequential(
		NewDense(rng, 4, 8),
		NewReLU(),
		NewDense(rng, 8, 3),
		NewLayerNorm(3),
	)
	x := tensor.Randn(rng, 3, 4, 1)
	checkLayerGradients(t, seq, x, 1e-5)
}

func TestResidualGradients(t *testing.T) {
	rng := stats.NewRNG(6)
	block := NewResidual(NewSequential(
		NewDense(rng, 5, 5),
		NewLayerNorm(5),
		NewDense(rng, 5, 5),
	))
	x := tensor.Randn(rng, 3, 5, 1)
	checkLayerGradients(t, block, x, 1e-5)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := stats.NewRNG(7)
	logits := tensor.Randn(rng, 6, 4, 1)
	labels := []int{0, 1, 2, 3, 1, 2}

	_, grad := softmaxCrossEntropy(logits, labels)
	num := numericalGrad(logits.Data, func() float64 {
		l, _ := softmaxCrossEntropy(logits, labels)
		return l
	})
	for i := range num {
		if math.Abs(num[i]-grad.Data[i]) > 1e-6 {
			t.Errorf("CE grad[%d]: analytic %v, numeric %v", i, grad.Data[i], num[i])
		}
	}
}

func TestKLDistillGradient(t *testing.T) {
	rng := stats.NewRNG(8)
	for _, temp := range []float64{1, 2, 0.5} {
		student := tensor.Randn(rng, 5, 4, 1)
		teacher := tensor.Randn(rng, 5, 4, 1)
		_, grad := klDistill(student, teacher, temp)
		num := numericalGrad(student.Data, func() float64 {
			l, _ := klDistill(student, teacher, temp)
			return l
		})
		for i := range num {
			if math.Abs(num[i]-grad.Data[i]) > 1e-6 {
				t.Errorf("KL(temp=%v) grad[%d]: analytic %v, numeric %v", temp, i, grad.Data[i], num[i])
			}
		}
	}
}

func TestMSEGradient(t *testing.T) {
	rng := stats.NewRNG(9)
	pred := tensor.Randn(rng, 4, 3, 1)
	target := tensor.Randn(rng, 4, 3, 1)
	_, grad := mse(pred, target)
	num := numericalGrad(pred.Data, func() float64 {
		l, _ := mse(pred, target)
		return l
	})
	for i := range num {
		if math.Abs(num[i]-grad.Data[i]) > 1e-6 {
			t.Errorf("MSE grad[%d]: analytic %v, numeric %v", i, grad.Data[i], num[i])
		}
	}
}
