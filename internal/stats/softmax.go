package stats

import "math"

// Softmax writes the softmax of logits into dst and returns dst. If dst is
// nil a new slice is allocated. The computation is numerically stable.
func Softmax(logits []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(logits))
	}
	m := Max(logits)
	var sum float64
	for i, x := range logits {
		e := math.Exp(x - m)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// SoftmaxTemp is Softmax applied to logits scaled by 1/temp. temp > 1
// softens the distribution, temp < 1 sharpens it (the DS-FL
// entropy-reduction aggregation uses temp < 1).
func SoftmaxTemp(logits []float64, temp float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(logits))
	}
	for i, x := range logits {
		dst[i] = x / temp
	}
	return Softmax(dst, dst)
}

// Max returns the maximum element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Argmax returns the index of the maximum element of xs (first on ties).
// It panics on an empty slice.
func Argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for slices shorter
// than two elements. The paper uses logit variance as a per-sample
// confidence signal (Eq. 7).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs))
}
