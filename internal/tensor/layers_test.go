package tensor_test

import (
	"testing"

	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// TestLayersReachKernelPath carries TestKernelPathReported up one package:
// each nn layer on a training step's path, and each layer group a Sequential
// runs as one sweep, must land in the simd loop that replaced its Go loop, so
// KernelStats.Path describes the step, not only the primitives. A fused
// loop's name carries its folded operands ("+bias", "+relu").
func TestLayersReachKernelPath(t *testing.T) {
	calls := tensor.CountLoopCalls(t)
	if calls == nil {
		t.Skip("no simd inner loops for this CPU: the generic path is the only one")
	}
	rng := stats.NewRNG(5)
	x := tensor.Randn(rng, 6, 8, 1)
	dout := tensor.Randn(rng, 6, 8, 1)
	dense, bn, relu := nn.NewDense(rng, 8, 8), nn.NewBatchNorm(8), nn.NewReLU()
	res := nn.NewResidual(nn.NewSequential())
	// The zoo's groups: Dense→BatchNorm→ReLU, Dense→BatchNorm, and
	// Residual→ReLU.
	group := nn.NewSequential(nn.NewDense(rng, 8, 8), nn.NewBatchNorm(8), nn.NewReLU())
	pair := nn.NewSequential(nn.NewDense(rng, 8, 8), nn.NewBatchNorm(8))
	skip := nn.NewSequential(nn.NewResidual(nn.NewSequential()), nn.NewReLU())
	row := tensor.Randn(rng, 1, 8, 1)
	for _, step := range []struct {
		name  string
		run   func()
		loops []string
	}{
		{"Dense.Forward", func() { dense.Forward(x, true) }, []string{"tile", "addRowVec"}},
		{"Dense.Backward", func() { dense.Backward(dout) }, []string{"tile", "transpose", "dotCols", "addColSums"}},
		{"BatchNorm.Forward/train", func() { bn.Forward(x, true) }, []string{"colSumSq", "bnApply"}},
		{"BatchNorm.Backward", func() { bn.Backward(dout) }, []string{"bnGradSums", "bnGradInput"}},
		{"BatchNorm.Forward/eval", func() { bn.Forward(x, false) }, []string{"bnApply"}},
		{"ReLU.Forward", func() { relu.Forward(x, true) }, []string{"relu"}},
		{"ReLU.Backward", func() { relu.Backward(dout) }, []string{"reluGrad"}},
		{"Residual.Forward", func() { res.Forward(x, true) }, []string{"add"}},
		{"Residual.Backward", func() { res.Backward(dout) }, []string{"add"}},
		{"Adam.Step", func() { nn.NewAdam(1e-3).Step(dense.Params()) }, []string{"adam"}},
		{"Dense→BatchNorm→ReLU/train", func() { group.Forward(x, true) }, []string{"tile", "colSumSq+bias", "bnApply+relu"}},
		{"Dense→BatchNorm→ReLU/backward", func() { group.Backward(dout) }, []string{"reluGrad", "bnGradSums", "bnGradInput", "dotCols"}},
		{"Dense→BatchNorm→ReLU/eval", func() { group.Forward(x, false) }, []string{"tile", "bnApply+bias+relu"}},
		{"Dense→BatchNorm/train", func() { pair.Forward(x, true) }, []string{"tile", "colSumSq+bias", "bnApply"}},
		{"Dense→BatchNorm/one row", func() { pair.Forward(row, true) }, []string{"tile", "bnApply+bias"}},
		{"Residual→ReLU", func() { skip.Forward(x, true) }, []string{"add+relu"}},
	} {
		before := map[string]int{}
		for _, l := range step.loops {
			before[l] = calls[l]
		}
		step.run()
		for _, l := range step.loops {
			if calls[l] == before[l] {
				t.Errorf("%s made no call into the %s loop", step.name, l)
			}
		}
	}
}
