package nn

import (
	"fmt"
	"math"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// SoftmaxCrossEntropyInto returns the mean cross-entropy between
// softmax(logits) and integer labels, and writes dL/dlogits (already divided
// by the batch size) into grad, which must already have the logits' shape.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d logit rows for %d labels", logits.Rows, len(labels)))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto grad shape %dx%d, want %dx%d",
			grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	var loss float64
	inv := 1 / float64(logits.Rows)
	scratch := tensor.GetScratch(1, logits.Cols)
	probs := scratch.Data
	for i := 0; i < logits.Rows; i++ {
		stats.Softmax(logits.Row(i), probs)
		y := labels[i]
		p := probs[y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grow := grad.Row(i)
		copy(grow, probs)
		grow[y] -= 1
		for j := range grow {
			grow[j] *= inv
		}
	}
	tensor.Release(scratch)
	return loss * inv
}

// KLDistillInto returns the temperature-scaled distillation loss
// T² · mean_i KL(t_i ‖ softmax(student_i/T)) and writes dL/d(studentLogits)
// into grad, which must already have the student logits' shape. teacher
// holds the teacher's distributions t_i = softmax(teacher_i/T)
// (stats.SoftmaxTemp of each teacher logit row), row-aligned with the
// student's logits: a loop over fixed teacher logits computes them once, not
// once per batch. The T² factor keeps gradient magnitudes comparable across
// temperatures (Hinton et al., 2015). The paper's Eqs. (11) and (15) use
// T = 1.
func KLDistillInto(grad, studentLogits, teacher *tensor.Matrix, temp float64) float64 {
	if studentLogits.Rows != teacher.Rows || studentLogits.Cols != teacher.Cols {
		panic(fmt.Sprintf("nn: KLDistill shape mismatch %dx%d vs %dx%d",
			studentLogits.Rows, studentLogits.Cols, teacher.Rows, teacher.Cols))
	}
	if temp <= 0 {
		panic(fmt.Sprintf("nn: KLDistill temperature must be positive, got %v", temp))
	}
	if grad.Rows != studentLogits.Rows || grad.Cols != studentLogits.Cols {
		panic(fmt.Sprintf("nn: KLDistillInto grad shape %dx%d, want %dx%d",
			grad.Rows, grad.Cols, studentLogits.Rows, studentLogits.Cols))
	}
	var loss float64
	inv := 1 / float64(studentLogits.Rows)
	scratch := tensor.GetScratch(1, studentLogits.Cols)
	s := scratch.Data
	for i := 0; i < studentLogits.Rows; i++ {
		t := teacher.Row(i)
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
			// d(T²·KL)/dz_s = T (s - t); mean over batch.
			grow[j] = temp * (s[j] - t[j]) * inv
		}
	}
	tensor.Release(scratch)
	return loss * temp * temp * inv
}

// MSEInto returns the mean-squared error between pred and target (mean over
// all elements) and writes dL/dpred into grad, which must already have
// pred's shape.
func MSEInto(grad, pred, target *tensor.Matrix) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSE shape mismatch %dx%d vs %dx%d", pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	if grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic(fmt.Sprintf("nn: MSEInto grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, pred.Rows, pred.Cols))
	}
	var loss float64
	n := float64(len(pred.Data))
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}
