package nn

import (
	"math"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// softmaxCrossEntropy, klDistill and mse run the Into losses on a fresh
// gradient buffer of the input's shape and return the loss and the buffer.
func softmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

func klDistill(student, teacher *tensor.Matrix, temp float64) (float64, *tensor.Matrix) {
	grad := tensor.New(student.Rows, student.Cols)
	return KLDistillInto(grad, student, teacher, temp), grad
}

func mse(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := tensor.New(pred.Rows, pred.Cols)
	return MSEInto(grad, pred, target), grad
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss must be log(4).
	logits := tensor.New(2, 4)
	loss, _ := softmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Errorf("uniform CE = %v, want log 4 = %v", loss, math.Log(4))
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromRows([][]float64{{100, 0, 0}, {0, 100, 0}})
	loss, grad := softmaxCrossEntropy(logits, []int{0, 1})
	if loss > 1e-9 {
		t.Errorf("perfect prediction CE = %v, want ~0", loss)
	}
	if grad.Norm() > 1e-9 {
		t.Errorf("perfect prediction grad norm = %v, want ~0", grad.Norm())
	}
}

func TestKLDistillZeroWhenEqual(t *testing.T) {
	rng := stats.NewRNG(1)
	logits := tensor.Randn(rng, 3, 5, 1)
	loss, grad := klDistill(logits, logits.Clone(), 1)
	if loss > 1e-12 {
		t.Errorf("KL(p||p) = %v, want 0", loss)
	}
	if grad.Norm() > 1e-12 {
		t.Errorf("KL(p||p) grad norm = %v, want 0", grad.Norm())
	}
}

func TestKLDistillNonNegative(t *testing.T) {
	rng := stats.NewRNG(2)
	for i := 0; i < 20; i++ {
		s := tensor.Randn(rng, 4, 6, 2)
		te := tensor.Randn(rng, 4, 6, 2)
		loss, _ := klDistill(s, te, 1)
		if loss < -1e-12 {
			t.Fatalf("KL divergence negative: %v", loss)
		}
	}
}

func TestMSEZeroWhenEqual(t *testing.T) {
	rng := stats.NewRNG(3)
	x := tensor.Randn(rng, 3, 4, 1)
	loss, grad := mse(x, x.Clone())
	if loss != 0 || grad.Norm() != 0 {
		t.Errorf("MSE(x,x) = %v grad %v, want 0", loss, grad.Norm())
	}
}

func TestMSEKnownValue(t *testing.T) {
	pred := tensor.FromRows([][]float64{{1, 2}})
	target := tensor.FromRows([][]float64{{0, 0}})
	loss, _ := mse(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Errorf("MSE = %v, want 2.5", loss)
	}
}

func TestLossShapeMismatchPanics(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"CE rows", func() { softmaxCrossEntropy(tensor.New(2, 3), []int{0}) }},
		{"KL shape", func() { klDistill(tensor.New(2, 3), tensor.New(2, 4), 1) }},
		{"KL temp", func() { klDistill(tensor.New(2, 3), tensor.New(2, 3), 0) }},
		{"MSE shape", func() { mse(tensor.New(2, 3), tensor.New(3, 2)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}
