package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Property: FlattenParams → SetFlatParams is the identity on any parameter
// list.
func TestFlattenSetRoundtripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		layer := NewDense(rng, 1+rng.IntN(6), 1+rng.IntN(6))
		before := FlattenParams(layer.Params())
		scrambled := make([]float64, len(before))
		for i := range scrambled {
			scrambled[i] = rng.NormFloat64()
		}
		if err := SetFlatParams(layer.Params(), scrambled); err != nil {
			return false
		}
		if err := SetFlatParams(layer.Params(), before); err != nil {
			return false
		}
		after := FlattenParams(layer.Params())
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: checkpoint save → load is the identity for random networks.
func TestCheckpointRoundtripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		dim := 2 + rng.IntN(5)
		net := NewNetwork("p", NewSequential(NewDense(rng, dim, dim), NewBatchNorm(dim), NewReLU()),
			NewSequential(NewDense(rng, dim, 3)))
		before := FlattenParams(net.Params())
		data := saveModel(t, net)
		// Scramble, then restore from the checkpoint.
		for _, p := range net.Params() {
			p.Value.Fill(9)
		}
		if err := loadModel(data, net); err != nil {
			return false
		}
		after := FlattenParams(net.Params())
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: eval-mode forwards are deterministic and side-effect free for
// every stateless-at-eval layer, including both norms.
func TestEvalForwardDeterministicProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		dim := 2 + rng.IntN(4)
		net := NewSequential(
			NewDense(rng, dim, dim),
			NewBatchNorm(dim),
			NewReLU(),
			NewLayerNorm(dim),
			NewDense(rng, dim, 2),
		)
		x := tensor.Randn(rng, 3, dim, 1)
		a := net.Forward(x, false)
		b := net.Forward(x, false)
		return a.Equal(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: one Adam step from a fresh state moves each weight against its
// gradient by at most the learning rate.
func TestSGDStepExactProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		p := newParam("w", tensor.Randn(rng, 2, 3, 1))
		grad := tensor.Randn(rng, 2, 3, 1)
		copy(p.Grad.Data, grad.Data)
		before := p.Value.Clone()
		lr := 0.01 + rng.Float64()
		NewAdam(lr).Step([]*Param{p})
		for i := range p.Value.Data {
			d := p.Value.Data[i] - before.Data[i]
			if math.Abs(d) > lr || d*grad.Data[i] > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Gradient check for the full model-zoo stack: a Dense→BatchNorm→ReLU→
// residual composite, the exact structure models.Build emits.
func TestZooCompositeGradients(t *testing.T) {
	rng := stats.NewRNG(77)
	stack := NewSequential(
		NewDense(rng, 3, 4),
		NewBatchNorm(4),
		NewReLU(),
		NewResidual(NewSequential(
			NewDense(rng, 4, 4),
			NewBatchNorm(4),
			NewReLU(),
			NewDense(rng, 4, 4),
			NewBatchNorm(4),
		)),
		NewReLU(),
	)
	x := tensor.Randn(rng, 5, 3, 1)

	// BatchNorm updates running stats on every train forward, which the
	// finite-difference probe must not see: freeze them around each loss
	// evaluation.
	var frozen [][]float64
	snapshot := func() {
		frozen = frozen[:0]
		for _, p := range stack.Params() {
			if p.Name == "running_mean" || p.Name == "running_var" {
				cp := make([]float64, len(p.Value.Data))
				copy(cp, p.Value.Data)
				frozen = append(frozen, cp)
			}
		}
	}
	restore := func() {
		i := 0
		for _, p := range stack.Params() {
			if p.Name == "running_mean" || p.Name == "running_var" {
				copy(p.Value.Data, frozen[i])
				i++
			}
		}
	}

	loss := func() float64 {
		snapshot()
		out := stack.Forward(x, true)
		restore()
		var s float64
		for _, v := range out.Data {
			s += v * v
		}
		return s / 2
	}

	out := stack.Forward(x, true)
	ZeroGrads(stack.Params())
	dx := stack.Backward(out.Clone())

	num := numericalGrad(x.Data, loss)
	for i := range num {
		if math.Abs(num[i]-dx.Data[i]) > 1e-4 {
			t.Errorf("zoo composite input grad[%d]: analytic %v, numeric %v", i, dx.Data[i], num[i])
		}
	}
}
