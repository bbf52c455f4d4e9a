package nn

import (
	"fmt"
	"math"

	"fedpkd/internal/tensor"
)

// Optimizer applies one update step to a parameter list using the gradients
// accumulated in each Param.Grad. Implementations keep per-parameter state
// keyed by the *Param pointer, so an optimizer instance must be used with a
// single model.
//
// Snapshot/Restore serialize that per-parameter state (Adam moments and step
// count, SGD momentum velocity) keyed by position in the params slice, which
// must therefore be the same stable list (e.g. Network.Params()) on both
// sides. Restoring into a freshly constructed optimizer reproduces the next
// Step bit for bit. Hyperparameters (LR, betas, …) are construction-time
// configuration, not state, and are not serialized.
type Optimizer interface {
	Step(params []*Param)
	Snapshot(sd *StateDict, prefix string, params []*Param)
	Restore(sd *StateDict, prefix string, params []*Param) error
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: SGD learning rate must be positive, got %v", lr))
	}
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param]*tensor.Matrix)}
}

// Step applies one SGD update.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.Grad
		if o.WeightDecay > 0 {
			g = g.Clone().AddScaled(o.WeightDecay, p.Value)
		}
		if o.Momentum > 0 {
			v, ok := o.velocity[p]
			if !ok {
				v = tensor.New(g.Rows, g.Cols)
				o.velocity[p] = v
			}
			v.Scale(o.Momentum).Add(g)
			g = v
		}
		p.Value.AddScaled(-o.LR, g)
	}
}

// Snapshot writes the momentum velocity of every param that has one. State
// is keyed by position in params, iterated in slice order for deterministic
// encoding (the velocity map's own order is not stable).
func (o *SGD) Snapshot(sd *StateDict, prefix string, params []*Param) {
	for i, p := range params {
		if v, ok := o.velocity[p]; ok {
			sd.PutTensor(fmt.Sprintf("%s.v%d", prefix, i), v)
		}
	}
}

// Restore rebuilds the velocity map from a Snapshot. Params without a saved
// velocity (never stepped, or momentum disabled) are left stateless, exactly
// as a fresh optimizer would treat them.
func (o *SGD) Restore(sd *StateDict, prefix string, params []*Param) error {
	if o.velocity == nil {
		o.velocity = make(map[*Param]*tensor.Matrix)
	}
	for i, p := range params {
		name := fmt.Sprintf("%s.v%d", prefix, i)
		if !sd.Has(name) {
			delete(o.velocity, p)
			continue
		}
		v := tensor.New(p.Value.Rows, p.Value.Cols)
		if err := sd.CopyTensorInto(name, v); err != nil {
			return fmt.Errorf("nn: restore SGD velocity for param %d: %w", i, err)
		}
		o.velocity[p] = v
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba, 2015) — the optimizer the paper
// uses for all client and server training (η = 0.001).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t     int
	state map[*Param]*adamState
}

// adamState bundles a parameter's first and second moments so Step pays one
// map lookup per parameter, not two.
type adamState struct {
	m, v *tensor.Matrix
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: Adam learning rate must be positive, got %v", lr))
	}
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		state: make(map[*Param]*adamState),
	}
}

// Step applies one Adam update with bias correction. The per-step bias
// corrections go to the element loop (tensor.AdamStep) as reciprocals, so it
// pays one divide and one sqrt per element instead of three divides.
func (o *Adam) Step(params []*Param) {
	o.t++
	k := tensor.AdamCoeffs{
		B1: o.Beta1, OB1: 1 - o.Beta1,
		B2: o.Beta2, OB2: 1 - o.Beta2,
		LR:    o.LR,
		InvC1: 1 / (1 - math.Pow(o.Beta1, float64(o.t))),
		InvC2: 1 / (1 - math.Pow(o.Beta2, float64(o.t))),
		Eps:   o.Eps,
	}
	for _, p := range params {
		st, ok := o.state[p]
		if !ok {
			st = &adamState{
				m: tensor.New(p.Grad.Rows, p.Grad.Cols),
				v: tensor.New(p.Grad.Rows, p.Grad.Cols),
			}
			o.state[p] = st
		}
		tensor.AdamStep(p.Value.Data, st.m.Data, st.v.Data, p.Grad.Data, k)
	}
}

// Snapshot writes the step count and per-param first/second moments. State
// is keyed by position in params, iterated in slice order so encoding is
// deterministic regardless of map iteration order.
func (o *Adam) Snapshot(sd *StateDict, prefix string, params []*Param) {
	sd.PutInt(prefix+".t", int64(o.t))
	for i, p := range params {
		if st, ok := o.state[p]; ok {
			sd.PutTensor(fmt.Sprintf("%s.m%d", prefix, i), st.m)
			sd.PutTensor(fmt.Sprintf("%s.v%d", prefix, i), st.v)
		}
	}
}

// Restore rebuilds the step count and moment estimates from a Snapshot so
// the next Step's bias corrections and updates are bit-identical to an
// uninterrupted run. Params without saved moments are left stateless.
func (o *Adam) Restore(sd *StateDict, prefix string, params []*Param) error {
	t, err := sd.Int(prefix + ".t")
	if err != nil {
		return fmt.Errorf("nn: restore Adam step count: %w", err)
	}
	o.t = int(t)
	if o.state == nil {
		o.state = make(map[*Param]*adamState)
	}
	for i, p := range params {
		mName := fmt.Sprintf("%s.m%d", prefix, i)
		vName := fmt.Sprintf("%s.v%d", prefix, i)
		if !sd.Has(mName) {
			delete(o.state, p)
			continue
		}
		st := &adamState{
			m: tensor.New(p.Value.Rows, p.Value.Cols),
			v: tensor.New(p.Value.Rows, p.Value.Cols),
		}
		if err := sd.CopyTensorInto(mName, st.m); err != nil {
			return fmt.Errorf("nn: restore Adam first moment for param %d: %w", i, err)
		}
		if err := sd.CopyTensorInto(vName, st.v); err != nil {
			return fmt.Errorf("nn: restore Adam second moment for param %d: %w", i, err)
		}
		o.state[p] = st
	}
	return nil
}
