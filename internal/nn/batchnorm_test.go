package nn

import (
	"math"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestBatchNormTrainNormalizes(t *testing.T) {
	rng := stats.NewRNG(1)
	bn := NewBatchNorm(4)
	x := tensor.Randn(rng, 64, 4, 3)
	x.AddRowVector([]float64{10, -5, 0, 2})
	out := bn.Forward(x, true)

	// Default gamma=1, beta=0: output columns must be ~N(0,1).
	for j := 0; j < 4; j++ {
		var sum, sq float64
		for i := 0; i < out.Rows; i++ {
			v := out.At(i, j)
			sum += v
			sq += v * v
		}
		mean := sum / float64(out.Rows)
		variance := sq/float64(out.Rows) - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Errorf("col %d mean = %v, want ~0", j, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("col %d variance = %v, want ~1", j, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := stats.NewRNG(2)
	bn := NewBatchNorm(2)
	for step := 0; step < 200; step++ {
		x := tensor.Randn(rng, 32, 2, 2)
		x.AddRowVector([]float64{5, -3})
		bn.Forward(x, true)
	}
	if math.Abs(bn.runningMean.Value.Data[0]-5) > 0.3 || math.Abs(bn.runningMean.Value.Data[1]+3) > 0.3 {
		t.Errorf("running mean = %v, want ~[5 -3]", bn.runningMean.Value.Data)
	}
	if math.Abs(bn.runningVar.Value.Data[0]-4) > 0.8 {
		t.Errorf("running var = %v, want ~4", bn.runningVar.Value.Data[0])
	}

	// Eval mode must use the running stats: a matching batch normalizes to
	// ~N(0,1).
	x := tensor.Randn(rng, 64, 2, 2)
	x.AddRowVector([]float64{5, -3})
	out := bn.Forward(x, false)
	var sum float64
	for i := 0; i < out.Rows; i++ {
		sum += out.At(i, 0)
	}
	if math.Abs(sum/float64(out.Rows)) > 0.3 {
		t.Errorf("eval-mode output mean = %v, want ~0", sum/float64(out.Rows))
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := stats.NewRNG(3)
	bn := NewBatchNorm(3)
	// Non-trivial gamma/beta so their gradients are exercised.
	copy(bn.gamma.Value.Row(0), []float64{1.5, 0.5, 2})
	copy(bn.beta.Value.Row(0), []float64{0.1, -0.2, 0.3})
	x := tensor.Randn(rng, 6, 3, 1)

	loss := func() float64 {
		// Use train-mode statistics for the numeric check but freeze the
		// running stats' influence by restoring them afterwards.
		rm := bn.runningMean.Value.Clone()
		rv := bn.runningVar.Value.Clone()
		out := bn.Forward(x, true)
		bn.runningMean.Value = rm
		bn.runningVar.Value = rv
		var s float64
		for _, v := range out.Data {
			s += v * v
		}
		return s / 2
	}

	out := bn.Forward(x, true)
	ZeroGrads(bn.Params())
	dx := bn.Backward(out.Clone())

	numDX := numericalGrad(x.Data, loss)
	for i := range numDX {
		if math.Abs(numDX[i]-dx.Data[i]) > 1e-5 {
			t.Errorf("input grad[%d]: analytic %v, numeric %v", i, dx.Data[i], numDX[i])
		}
	}
	for _, p := range []*Param{bn.gamma, bn.beta} {
		num := numericalGrad(p.Value.Data, loss)
		for i := range num {
			if math.Abs(num[i]-p.Grad.Data[i]) > 1e-5 {
				t.Errorf("%s grad[%d]: analytic %v, numeric %v", p.Name, i, p.Grad.Data[i], num[i])
			}
		}
	}
}

func TestBatchNormRunningStatsHaveZeroGrad(t *testing.T) {
	rng := stats.NewRNG(4)
	bn := NewBatchNorm(2)
	x := tensor.Randn(rng, 8, 2, 1)
	out := bn.Forward(x, true)
	ZeroGrads(bn.Params())
	bn.Backward(out)
	if bn.runningMean.Grad.Norm() != 0 || bn.runningVar.Grad.Norm() != 0 {
		t.Error("running statistics must never accumulate gradients")
	}
	// An optimizer step must not move them.
	before := bn.runningMean.Value.Clone()
	NewAdam(0.1).Step(bn.Params())
	if !bn.runningMean.Value.Equal(before, 0) {
		t.Error("optimizer moved the running mean")
	}
}

func TestBatchNormSingleSampleFallsBackToRunningStats(t *testing.T) {
	rng := stats.NewRNG(5)
	bn := NewBatchNorm(2)
	x := tensor.Randn(rng, 1, 2, 1)
	out := bn.Forward(x, true) // batch of 1: no usable batch statistics
	if out.Rows != 1 {
		t.Fatal("wrong shape")
	}
}

func TestBatchNormBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBatchNorm(0) should panic")
		}
	}()
	NewBatchNorm(0)
}

func TestBatchNormWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width mismatch should panic")
		}
	}()
	NewBatchNorm(3).Forward(tensor.New(2, 4), true)
}
