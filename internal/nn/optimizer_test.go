package nn

import (
	"math"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// quadParam builds a single scalar parameter for minimizing f(w) = (w-3)².
func quadParam(start float64) *Param {
	p := newParam("w", tensor.FromSlice(1, 1, []float64{start}))
	return p
}

func quadGrad(p *Param) {
	p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
}

// TestSGDConvergesOnQuadratic: Adam adapts per element, so every entry of
// a matrix param reaches the quadratic's minimum from its own start.
func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := newParam("w", tensor.FromSlice(2, 2, []float64{-5, 0, 3, 40}))
	opt := NewAdam(0.1)
	for i := 0; i < 3000; i++ {
		for j, w := range p.Value.Data {
			p.Grad.Data[j] = 2 * (w - 3)
		}
		opt.Step([]*Param{p})
	}
	for j, w := range p.Value.Data {
		if math.Abs(w-3) > 1e-3 {
			t.Errorf("Adam entry %d converged to %v, want 3", j, w)
		}
	}
}

// TestSGDMomentumConverges: Adam's first moment is a momentum. After a long
// run of positive gradients, one negative gradient does not yet reverse the
// step.
func TestSGDMomentumConverges(t *testing.T) {
	p := quadParam(0)
	opt := NewAdam(0.01)
	for i := 0; i < 50; i++ {
		p.Grad.Data[0] = 1
		opt.Step([]*Param{p})
	}
	before := p.Value.Data[0]
	p.Grad.Data[0] = -1
	opt.Step([]*Param{p})
	if p.Value.Data[0] >= before {
		t.Errorf("one reversed gradient reversed the step (%v -> %v); the first moment should carry it", before, p.Value.Data[0])
	}
}

// TestSGDWeightDecayShrinks: Adam applies no weight decay. A zero gradient
// on a fresh optimizer leaves the weight bit-identical.
func TestSGDWeightDecayShrinks(t *testing.T) {
	p := quadParam(3) // gradient of the quadratic is 0 here
	opt := NewAdam(0.1)
	p.Grad.Zero()
	opt.Step([]*Param{p})
	if p.Value.Data[0] != 3 {
		t.Errorf("a zero gradient moved the weight to %v", p.Value.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadParam(-5)
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		quadGrad(p)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Value.Data[0]-3) > 1e-3 {
		t.Errorf("Adam converged to %v, want 3", p.Value.Data[0])
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step size is ≈ LR regardless of
	// gradient magnitude.
	p := quadParam(100)
	opt := NewAdam(0.01)
	quadGrad(p)
	before := p.Value.Data[0]
	opt.Step([]*Param{p})
	step := math.Abs(p.Value.Data[0] - before)
	if math.Abs(step-0.01) > 1e-6 {
		t.Errorf("first Adam step = %v, want ~0.01", step)
	}
}

func TestOptimizerBadLRPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"sgd":  func() { NewAdam(0) },
		"adam": func() { NewAdam(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestZeroGrads(t *testing.T) {
	p := quadParam(0)
	p.Grad.Fill(5)
	ZeroGrads([]*Param{p})
	if p.Grad.Data[0] != 0 {
		t.Error("ZeroGrads failed")
	}
}

func TestFlattenSetRoundtrip(t *testing.T) {
	a := newParam("a", tensor.FromRows([][]float64{{1, 2}, {3, 4}}))
	b := newParam("b", tensor.FromRows([][]float64{{5, 6, 7}}))
	params := []*Param{a, b}
	if got := ParamCount(params); got != 7 {
		t.Fatalf("ParamCount = %d, want 7", got)
	}
	flat := FlattenParams(params)
	for i := range flat {
		flat[i] += 10
	}
	if err := SetFlatParams(params, flat); err != nil {
		t.Fatal(err)
	}
	if a.Value.At(0, 0) != 11 || b.Value.At(0, 2) != 17 {
		t.Error("SetFlatParams wrote wrong values")
	}
	if err := SetFlatParams(params, flat[:3]); err == nil {
		t.Error("SetFlatParams with short vector should error")
	}
}

// TestSchedules pins the one step-size schedule Adam has: its bias
// corrections 1/(1-β^t) start at 1/(1-β) and fall monotonically toward 1,
// while the learning rate itself never moves.
func TestSchedules(t *testing.T) {
	o := NewAdam(0.1)
	prev := o.nextCoeffs()
	if math.Abs(prev.InvC1-10) > 1e-9 || math.Abs(prev.InvC2-1000) > 1e-6 {
		t.Errorf("first bias corrections = %v, %v, want 10, 1000", prev.InvC1, prev.InvC2)
	}
	for step := 2; step <= 20000; step++ {
		k := o.nextCoeffs()
		if k.InvC1 > prev.InvC1 || k.InvC2 > prev.InvC2 || k.LR != 0.1 {
			t.Fatalf("step %d: coefficients %+v after %+v", step, k, prev)
		}
		prev = k
	}
	if math.Abs(prev.InvC1-1) > 1e-12 || math.Abs(prev.InvC2-1) > 1e-6 {
		t.Errorf("bias corrections after 20000 steps = %v, %v, want 1", prev.InvC1, prev.InvC2)
	}
}

// TestScheduledOptimizer: under a constant gradient the bias corrections
// cancel the moments' warm-up, so Adam moves by LR on every step. Each Step
// consumes its gradient, leaving it +0 for the next backward pass to
// accumulate into, so the gradient is set again before every step.
func TestScheduledOptimizer(t *testing.T) {
	p := quadParam(0)
	opt := NewAdam(0.1)
	for step, want := range []float64{-0.1, -0.2} {
		p.Grad.Data[0] = 1
		opt.Step([]*Param{p})
		if math.Abs(p.Value.Data[0]-want) > 1e-6 {
			t.Errorf("step %d: total moved to %v, want %v", step+1, p.Value.Data[0], want)
		}
		if g := p.Grad.Data[0]; math.Float64bits(g) != 0 {
			t.Errorf("step %d left the gradient at %v, want +0", step+1, g)
		}
	}
}

// TestScheduledRejectsUnknownOptimizer: the checkpoint walk refuses an
// optimizer type it does not know instead of writing it wrong.
func TestScheduledRejectsUnknownOptimizer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SnapshotModelSection accepted an unknown optimizer type")
		}
	}()
	SnapshotModelSection(ckpt.NewDict(nil), "model", stateTestNet(1), fakeOpt{})
}

type fakeOpt struct{}

func (fakeOpt) Step([]*Param)                              {}
func (fakeOpt) Snapshot(*StateDict, string, []*Param)      {}
func (fakeOpt) Restore(*StateDict, string, []*Param) error { return nil }

// TestClipGradNorm: Adam normalizes each gradient by its own magnitude, so
// its first step is the same whether the gradients are 30 and 40 or a tenth
// of that.
func TestClipGradNorm(t *testing.T) {
	step := func(g1, g2 float64) (float64, float64) {
		p, q := quadParam(0), quadParam(0)
		p.Grad.Data[0], q.Grad.Data[0] = g1, g2
		NewAdam(0.01).Step([]*Param{p, q})
		return p.Value.Data[0], q.Value.Data[0]
	}
	p1, q1 := step(30, 40)
	p2, q2 := step(3, 4)
	if math.Abs(p1-p2) > 1e-9 || math.Abs(q1-q2) > 1e-9 {
		t.Errorf("first steps differ with gradient scale: %v, %v vs %v, %v", p1, q1, p2, q2)
	}
}

// TestClipGradNormBadMaxPanics: the checkpoint walk refuses a layer type it
// does not know instead of writing it wrong.
func TestClipGradNormBadMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SnapshotModelSection accepted an unknown layer type")
		}
	}()
	alien := NewNetwork("alien", NewSequential(paramLayer{NewDense(stats.NewRNG(1), 2, 2)}), NewSequential())
	SnapshotModelSection(ckpt.NewDict(nil), "model", alien, nil)
}
