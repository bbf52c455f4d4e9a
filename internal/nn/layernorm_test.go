package nn

import (
	"math"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestLayerNormNormalizesRows(t *testing.T) {
	rng := stats.NewRNG(1)
	ln := NewLayerNorm(16)
	x := tensor.Randn(rng, 8, 16, 3)
	x.AddRowVector(make([]float64, 16)) // no-op, keeps shape obvious
	out := ln.Forward(x, false)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		mean := stats.Mean(row)
		variance := stats.Variance(row)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("row %d mean = %v, want ~0", i, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("row %d variance = %v, want ~1", i, variance)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := stats.NewRNG(2)
	ln := NewLayerNorm(4)
	copy(ln.gamma.Value.Row(0), []float64{1.5, 0.5, 2, 0.8})
	copy(ln.beta.Value.Row(0), []float64{0.1, -0.2, 0.3, 0})
	x := tensor.Randn(rng, 5, 4, 1)
	checkLayerGradients(t, ln, x, 1e-5)
}

func TestLayerNormStatelessAcrossBatches(t *testing.T) {
	// Unlike BatchNorm, LayerNorm output for a sample must not depend on
	// the rest of the batch.
	rng := stats.NewRNG(3)
	ln := NewLayerNorm(6)
	a := tensor.Randn(rng, 1, 6, 1)
	batch := tensor.New(3, 6)
	copy(batch.Row(0), a.Row(0))
	copy(batch.Row(1), tensor.Randn(rng, 1, 6, 5).Row(0))
	copy(batch.Row(2), tensor.Randn(rng, 1, 6, 5).Row(0))

	solo := ln.Forward(a, false)
	inBatch := ln.Forward(batch, false)
	for j := 0; j < 6; j++ {
		if math.Abs(solo.At(0, j)-inBatch.At(0, j)) > 1e-12 {
			t.Fatal("LayerNorm output depends on batch composition")
		}
	}
}

func TestLayerNormBackwardWithoutForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLayerNorm(2).Backward(tensor.New(1, 2))
}
