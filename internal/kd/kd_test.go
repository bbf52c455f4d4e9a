package kd

import (
	"math"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestAggregateMean(t *testing.T) {
	a := tensor.FromRows([][]float64{{1, 3}, {0, 0}})
	b := tensor.FromRows([][]float64{{3, 5}, {2, 4}})
	got := AggregateMean([]*tensor.Matrix{a, b})
	want := tensor.FromRows([][]float64{{2, 4}, {1, 2}})
	if !got.Equal(want, 1e-12) {
		t.Errorf("AggregateMean = %v", got.Data)
	}
}

func TestAggregateVarianceWeightedFavorsConfident(t *testing.T) {
	// Client A is confident on sample 0 (class 0); client B is flat.
	// The ensemble must follow A.
	a := tensor.FromRows([][]float64{{10, -5, -5}})
	b := tensor.FromRows([][]float64{{0.1, 0.2, 0.1}})
	got := AggregateVarianceWeighted([]*tensor.Matrix{a, b})
	if PseudoLabels(got)[0] != 0 {
		t.Errorf("ensemble argmax = %d, want 0 (confident client)", PseudoLabels(got)[0])
	}
	// The confident client's weight should be near 1.
	if got.At(0, 0) < 9 {
		t.Errorf("ensemble logit[0] = %v, want close to 10", got.At(0, 0))
	}
}

func TestAggregateVarianceWeightedUniformFallback(t *testing.T) {
	// All-constant logits have zero variance; fall back to plain mean.
	a := tensor.FromRows([][]float64{{2, 2, 2}})
	b := tensor.FromRows([][]float64{{4, 4, 4}})
	got := AggregateVarianceWeighted([]*tensor.Matrix{a, b})
	for j := 0; j < 3; j++ {
		if math.Abs(got.At(0, j)-3) > 1e-12 {
			t.Errorf("fallback mean[%d] = %v, want 3", j, got.At(0, j))
		}
	}
}

func TestAggregateVarianceWeightedMatchesPaperWeights(t *testing.T) {
	// Hand-check Eq. (6)-(7) on one sample with two clients.
	a := tensor.FromRows([][]float64{{1, -1}}) // variance 1
	b := tensor.FromRows([][]float64{{3, -3}}) // variance 9
	got := AggregateVarianceWeighted([]*tensor.Matrix{a, b})
	// Weights: 0.1 and 0.9 -> logits 0.1*1+0.9*3 = 2.8.
	if math.Abs(got.At(0, 0)-2.8) > 1e-12 || math.Abs(got.At(0, 1)+2.8) > 1e-12 {
		t.Errorf("variance-weighted = %v, want (2.8, -2.8)", got.Row(0))
	}
}

// entropy is the Shannon entropy (nats) of a probability vector.
func entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

func TestAggregateERASharpens(t *testing.T) {
	a := tensor.FromRows([][]float64{{1, 0, 0}})
	b := tensor.FromRows([][]float64{{1.2, 0.1, 0}})
	mean := AggregateMean([]*tensor.Matrix{a, b})
	era := AggregateERA([]*tensor.Matrix{a, b}, 0.25)

	meanProbs := stats.Softmax(mean.Row(0), nil)
	eraProbs := stats.Softmax(era.Row(0), nil)
	if entropy(eraProbs) >= entropy(meanProbs) {
		t.Errorf("ERA should reduce entropy: %v vs %v", entropy(eraProbs), entropy(meanProbs))
	}
	if stats.Argmax(eraProbs) != stats.Argmax(meanProbs) {
		t.Error("ERA must not change the consensus argmax")
	}
}

func TestAggregateConfidenceWeighted(t *testing.T) {
	confident := tensor.FromRows([][]float64{{8, -8}})
	flat := tensor.FromRows([][]float64{{-0.1, 0.1}})
	got := AggregateConfidenceWeighted([]*tensor.Matrix{confident, flat})
	if PseudoLabels(got)[0] != 0 {
		t.Error("confidence weighting should favor the confident client")
	}
}

func TestPseudoLabels(t *testing.T) {
	logits := tensor.FromRows([][]float64{{1, 5, 2}, {9, 0, 0}})
	got := PseudoLabels(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("PseudoLabels = %v", got)
	}
}

func TestPerLabelAccuracy(t *testing.T) {
	logits := tensor.FromRows([][]float64{
		{5, 0}, // pred 0
		{5, 0}, // pred 0
		{0, 5}, // pred 1
		{5, 0}, // pred 0
	})
	trueLabels := []int{0, 0, 1, 1}
	acc := PerLabelAccuracy(logits, trueLabels, 2)
	if acc[0] != 1 || acc[1] != 0.5 {
		t.Errorf("PerLabelAccuracy = %v, want [1 0.5]", acc)
	}
}

func TestLogitsAccuracy(t *testing.T) {
	logits := tensor.FromRows([][]float64{{5, 0}, {0, 5}})
	if got := LogitsAccuracy(logits, []int{0, 0}); got != 0.5 {
		t.Errorf("LogitsAccuracy = %v, want 0.5", got)
	}
}

func TestAggregateShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched shapes should panic")
		}
	}()
	AggregateMean([]*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 4)})
}

func TestAggregateEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty aggregation should panic")
		}
	}()
	AggregateMean(nil)
}

// The motivating scenario behind Eqs. (6)-(7): under non-IID data, for any
// given sample most clients never trained on its class and emit flat noisy
// logits; equal averaging buries the one specialist's signal under their
// noise, while variance weighting suppresses the unconfident clients.
func TestVarianceWeightingBeatsMeanOnSpecializedClients(t *testing.T) {
	rng := stats.NewRNG(9)
	const n, classes, clients = 500, 10, 5
	trueLabels := make([]int, n)
	clientLogits := make([]*tensor.Matrix, clients)
	for c := range clientLogits {
		clientLogits[c] = tensor.New(n, classes)
	}
	for i := 0; i < n; i++ {
		y := rng.IntN(classes)
		trueLabels[i] = y
		specialist := rng.IntN(clients)
		for c := 0; c < clients; c++ {
			row := clientLogits[c].Row(i)
			if c == specialist {
				// In-distribution: confident, peaked, correct.
				for j := range row {
					row[j] = rng.NormFloat64() * 0.2
				}
				row[y] += 4.5
			} else {
				// Out-of-distribution: lower-magnitude logits with a
				// moderately confident wrong spike.
				for j := range row {
					row[j] = rng.NormFloat64() * 0.3
				}
				row[rng.IntN(classes)] += 3.0
			}
		}
	}
	meanAcc := LogitsAccuracy(AggregateMean(clientLogits), trueLabels)
	varAcc := LogitsAccuracy(AggregateVarianceWeighted(clientLogits), trueLabels)
	if varAcc <= meanAcc {
		t.Errorf("variance weighting (%v) should beat mean (%v) on specialized clients", varAcc, meanAcc)
	}
	if varAcc < 0.9 {
		t.Errorf("variance weighting accuracy %v unexpectedly low", varAcc)
	}
	if meanAcc > 0.95 {
		t.Errorf("mean accuracy %v too high for the scenario to be informative", meanAcc)
	}
}
