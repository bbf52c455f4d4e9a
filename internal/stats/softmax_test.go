package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSoftmaxSumsToOne(t *testing.T) {
	cases := [][]float64{
		{0, 0, 0},
		{1, 2, 3},
		{-100, 0, 100},
		{1000, 1000.5, 999},
		{5},
	}
	for _, logits := range cases {
		p := Softmax(logits, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Errorf("Softmax(%v) produced out-of-range prob %v", logits, v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("Softmax(%v) sums to %v, want 1", logits, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Huge logits must not produce NaN/Inf.
	p := Softmax([]float64{1e308 / 2, 1e308 / 2, 0}, nil)
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Softmax unstable at index %d: %v", i, v)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c float64, shift float64) bool {
		// Keep values in a sane range.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		logits := []float64{clamp(a), clamp(b), clamp(c)}
		s := clamp(shift)
		shifted := []float64{logits[0] + s, logits[1] + s, logits[2] + s}
		p1 := Softmax(logits, nil)
		p2 := Softmax(shifted, nil)
		for i := range p1 {
			if !almostEqual(p1[i], p2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxTempSharpens(t *testing.T) {
	logits := []float64{1, 2, 3}
	soft := SoftmaxTemp(logits, 1, nil)
	sharp := SoftmaxTemp(logits, 0.25, nil)
	if Max(sharp) <= Max(soft) {
		t.Errorf("temperature 0.25 should sharpen: max p %v, want above %v", Max(sharp), Max(soft))
	}
	if Argmax(sharp) != Argmax(soft) {
		t.Error("temperature scaling must not change the argmax")
	}
}

// TestLogSoftmaxMatchesSoftmax: Softmax preserves logit differences as
// log-probability ratios, log p_i - log p_j = x_i - x_j.
func TestLogSoftmaxMatchesSoftmax(t *testing.T) {
	logits := []float64{0.3, -1.2, 4.5, 2.2}
	p := Softmax(logits, nil)
	for i := range p {
		if got, want := math.Log(p[i])-math.Log(p[0]), logits[i]-logits[0]; !almostEqual(got, want, 1e-9) {
			t.Errorf("log p[%d] - log p[0] = %v, want %v", i, got, want)
		}
	}
}

// TestLogSumExp: Softmax shifts by the max logit, so logits far beyond
// exp's range still give finite probabilities that sum to 1.
func TestLogSumExp(t *testing.T) {
	for _, logits := range [][]float64{{1000, 1001, 1002}, {-1000, -1001, -1002}} {
		p := Softmax(logits, nil)
		var sum float64
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Softmax(%v) = %v, want finite", logits, p)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-12) {
			t.Errorf("Softmax(%v) sums to %v, want 1", logits, sum)
		}
	}
}

// TestEntropyUniformIsMax: equal logits give the uniform distribution, and
// raising one logit moves mass onto it.
func TestEntropyUniformIsMax(t *testing.T) {
	for _, p := range Softmax([]float64{2, 2, 2, 2}, nil) {
		if !almostEqual(p, 0.25, 1e-12) {
			t.Fatalf("Softmax of equal logits gave %v, want 1/4", p)
		}
	}
	if p := Softmax([]float64{5, 2, 2, 2}, nil); p[0] <= 0.25 || Argmax(p) != 0 {
		t.Errorf("raising logit 0 gave %v, want the mass on class 0", p)
	}
}

func TestArgmaxAndMax(t *testing.T) {
	xs := []float64{1, 5, 3, 5}
	if got := Argmax(xs); got != 1 {
		t.Errorf("Argmax ties should pick first: got %d, want 1", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of a singleton must be 0")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
}

func TestVarianceConfidenceSignal(t *testing.T) {
	// A confident (peaked) logit vector has higher variance than a flat one —
	// the property Eq. (7) of the paper relies on.
	confident := []float64{10, -2, -2, -2}
	unsure := []float64{0.1, 0.0, -0.1, 0.05}
	if Variance(confident) <= Variance(unsure) {
		t.Error("confident logits should have higher variance than flat logits")
	}
}
