package nn

import (
	"math"
	"testing"

	"fedpkd/internal/dataset"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// softmaxCrossEntropy, klDistill and mse run the Into losses on a fresh
// gradient buffer of the input's shape and return the loss and the buffer;
// klDistill takes the teacher's logits and hands KLDistillInto their
// distributions.
func softmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

func klDistill(student, teacher *tensor.Matrix, temp float64) (float64, *tensor.Matrix) {
	grad := tensor.New(student.Rows, student.Cols)
	return KLDistillInto(grad, student, softmaxTempRows(teacher, temp), temp), grad
}

// softmaxTempRows is stats.SoftmaxTemp of every row of logits, as
// KLDistillInto's callers compute their teacher distributions. A temp the
// loss rejects passes the logits through, so the loss's own check panics.
func softmaxTempRows(logits *tensor.Matrix, temp float64) *tensor.Matrix {
	if temp <= 0 {
		return logits
	}
	probs := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		stats.SoftmaxTemp(logits.Row(i), temp, probs.Row(i))
	}
	return probs
}

// klDistillPerBatch is KLDistillInto as it was before its callers computed
// the teacher's distributions once per call: it takes teacher logits and
// recomputes their softmax on every batch. It is the oracle for the
// once-per-call form.
func klDistillPerBatch(grad, studentLogits, teacherLogits *tensor.Matrix, temp float64) float64 {
	var loss float64
	inv := 1 / float64(studentLogits.Rows)
	cols := studentLogits.Cols
	t, s := make([]float64, cols), make([]float64, cols)
	for i := 0; i < studentLogits.Rows; i++ {
		stats.SoftmaxTemp(teacherLogits.Row(i), temp, t)
		stats.SoftmaxTemp(studentLogits.Row(i), temp, s)
		grow := grad.Row(i)
		for j := range t {
			if t[j] > 0 {
				sj := s[j]
				if sj < 1e-12 {
					sj = 1e-12
				}
				loss += t[j] * math.Log(t[j]/sj)
			}
			grow[j] = temp * (s[j] - t[j]) * inv
		}
	}
	return loss * temp * temp * inv
}

// TestKLDistillTeacherOnceMatchesPerBatch: the teacher's distributions
// computed once for all rows and gathered per batch, as fl's loops do, give
// the per-batch recompute's loss and gradient bit for bit, at temperatures 1
// and 2.
func TestKLDistillTeacherOnceMatchesPerBatch(t *testing.T) {
	const rows, cols, batch = 70, 10, 32
	rng := stats.NewRNG(12)
	teacher := tensor.Randn(rng, rows, cols, 3)
	for _, temp := range []float64{1, 2} {
		probs := softmaxTempRows(teacher, temp)
		var sb, tb, pb *tensor.Matrix
		for _, idx := range dataset.Batches(rng, rows, batch) {
			sb = dataset.GatherRowsInto(sb, tensor.Randn(rng, rows, cols, 3), idx)
			tb = dataset.GatherRowsInto(tb, teacher, idx)
			pb = dataset.GatherRowsInto(pb, probs, idx)
			want, got := tensor.New(len(idx), cols), tensor.New(len(idx), cols)
			wantLoss := klDistillPerBatch(want, sb, tb, temp)
			gotLoss := KLDistillInto(got, sb, pb, temp)
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Errorf("temp %v: loss %v, per-batch recompute %v", temp, gotLoss, wantLoss)
			}
			if !sameBits(got.Data, want.Data) {
				t.Errorf("temp %v: gradient differs from the per-batch recompute", temp)
			}
		}
	}
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
