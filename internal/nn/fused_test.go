package nn_test

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// The fusion oracle: Sequential.Forward runs Dense→BatchNorm (with the ReLU
// after it) and Residual→ReLU as single sweeps, ReLU's backward reads its own output
// instead of a mask, and Adam clears the gradients it reads. leafWalk runs the
// same layer tree the way it ran before any of that — every Dense, BatchNorm
// and LayerNorm through its own Forward and Backward, one leaf at a time, and
// the ReLU and the residual add as reference loops of this file, the ReLU
// recording a mask at forward time — and every result must match it bit for
// bit: outputs, input and parameter gradients, parameters after Adam, in
// train and eval mode, blocked and wide.

// leafWalk is the unfused reference walk over a layer tree. It keeps what its
// own ReLUs and residual adds need for the backward pass, per layer.
type leafWalk struct {
	masks map[*nn.ReLU][]float64
}

func newLeafWalk() *leafWalk { return &leafWalk{masks: map[*nn.ReLU][]float64{}} }

// reluRef is max(0, v) on the bit pattern: any value with the sign bit set,
// -0 and negative NaNs included, becomes +0; everything else passes as is.
func reluRef(v float64) float64 {
	if math.Signbit(v) {
		return 0
	}
	return v
}

// addRef is a + b with x86's rule for two NaNs made explicit — the first
// operand's NaN, quieted, as VADDPD and ADDSD return it — so the reference
// sum does not depend on which operand order the compiler picks for a
// commutative add.
func addRef(a, b float64) float64 {
	if math.IsNaN(a) {
		return math.Float64frombits(math.Float64bits(a) | 1<<51)
	}
	return a + b
}

// forward runs l on x one leaf at a time and returns a fresh matrix.
func (w *leafWalk) forward(l nn.Layer, x *tensor.Matrix, train bool) *tensor.Matrix {
	switch v := l.(type) {
	case *nn.Sequential:
		for _, c := range v.Layers {
			x = w.forward(c, x, train)
		}
		return x
	case *nn.Residual:
		inner := w.forward(v.Inner, x, train)
		out := tensor.New(x.Rows, x.Cols)
		for i := range out.Data {
			out.Data[i] = addRef(inner.Data[i], x.Data[i])
		}
		return out
	case *nn.ReLU:
		out := tensor.New(x.Rows, x.Cols)
		mask := make([]float64, len(x.Data))
		for i, xv := range x.Data {
			out.Data[i] = reluRef(xv)
			if math.Float64bits(out.Data[i]) != 0 {
				mask[i] = 1
			}
		}
		if train {
			w.masks[v] = mask
		}
		return out
	default:
		return l.Forward(x, train).Clone()
	}
}

// backward runs l's backward pass the same way and returns a fresh matrix.
func (w *leafWalk) backward(l nn.Layer, dout *tensor.Matrix) *tensor.Matrix {
	switch v := l.(type) {
	case *nn.Sequential:
		for i := len(v.Layers) - 1; i >= 0; i-- {
			dout = w.backward(v.Layers[i], dout)
		}
		return dout
	case *nn.Residual:
		dx := w.backward(v.Inner, dout)
		out := tensor.New(dx.Rows, dx.Cols)
		for i := range out.Data {
			out.Data[i] = addRef(dx.Data[i], dout.Data[i])
		}
		return out
	case *nn.ReLU:
		mask := w.masks[v]
		dx := tensor.New(dout.Rows, dout.Cols)
		for i, d := range dout.Data {
			dx.Data[i] = d * mask[i]
		}
		return dx
	default:
		return l.Backward(dout).Clone()
	}
}

// fusedArch is one architecture of the zoo, by name or as a spec.
type fusedArch struct {
	name string
	spec models.Spec
}

// fusedArchs is every zoo architecture, both LayerNorm variants and a
// build with no normalization at all.
func fusedArchs(t *testing.T) []fusedArch {
	var archs []fusedArch
	for _, name := range []string{"ResNet11", "ResNet20", "ResNet29", "ResNet56", "ResNet20-LN", "ResNet56-LN"} {
		spec, err := models.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		archs = append(archs, fusedArch{name, spec})
	}
	return append(archs, fusedArch{"ResNet20-none", models.Spec{Name: "ResNet20-none", Blocks: 3, Hidden: models.FeatureWidth, Norm: models.NormNone}})
}

// twinNets builds the architecture twice from one seed: the network under
// test and the one the leaf walk drives, with identical parameters.
func twinNets(a fusedArch, seed uint64) (fused, ref *nn.Network) {
	return models.Build(stats.NewRNG(seed), a.spec, inputDim, classes), models.Build(stats.NewRNG(seed), a.spec, inputDim, classes)
}

// requireBits fails t unless got has want's shape and bits.
func requireBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !bitsEqual(got.Data, want.Data) {
		t.Fatalf("%s: the fused network differs from the leaf walk", what)
	}
}

// requireSameParams fails t unless both networks' params, running
// statistics included, and gradients hold the same bits.
func requireSameParams(t *testing.T, what string, fused, ref *nn.Network) {
	t.Helper()
	fp, rp := fused.Params(), ref.Params()
	for i := range fp {
		requireBits(t, fmt.Sprintf("%s, param %d (%s)", what, i, fp[i].Name), fp[i].Value, rp[i].Value)
		requireBits(t, fmt.Sprintf("%s, gradient %d (%s)", what, i, fp[i].Name), fp[i].Grad, rp[i].Grad)
	}
}

// fusedGrad is the cross-entropy gradient of logits against labels that
// cycle through the classes.
func fusedGrad(logits *tensor.Matrix) *tensor.Matrix {
	labels := make([]int, logits.Rows)
	for i := range labels {
		labels[i] = i % classes
	}
	grad := tensor.New(logits.Rows, logits.Cols)
	nn.SoftmaxCrossEntropyInto(grad, logits, labels)
	return grad
}

// TestFusedMatchesLeafWalk: on every zoo architecture and at batches of 1
// (BatchNorm's running-statistics fallback), 32 and 33, the fused train-mode
// forward, the network's backward into every parameter gradient (it forms no
// input gradient), Adam's update, and the eval-mode forward — whole, and in
// 64-row blocks — give the leaf walk's bits, step after step.
func TestFusedMatchesLeafWalk(t *testing.T) {
	evalX := tensor.Randn(stats.NewRNG(41), 150, inputDim, 1)
	for _, a := range fusedArchs(t) {
		t.Run(a.name, func(t *testing.T) {
			fused, ref := twinNets(a, 7)
			walk := newLeafWalk()
			fopt, ropt := nn.NewAdam(1e-2), nn.NewAdam(1e-2)
			rng := stats.NewRNG(8)
			for step, rows := range []int{32, 33, 1, 32} {
				what := fmt.Sprintf("step %d (%d rows)", step, rows)
				x := tensor.Randn(rng, rows, inputDim, 1)
				feats, logits := fused.ForwardSplit(x)
				rfeats := walk.forward(ref.Body, x, true)
				rlogits := walk.forward(ref.Head, rfeats, true)
				requireBits(t, what+", features", feats, rfeats)
				requireBits(t, what+", logits", logits, rlogits)

				grad := fusedGrad(logits)
				fused.Backward(grad, nil)
				walk.backward(ref.Body, walk.backward(ref.Head, grad))
				requireSameParams(t, what+", after backward", fused, ref)

				fopt.Step(fused.Params())
				ropt.Step(ref.Params())
				requireSameParams(t, what+", after Adam", fused, ref)
				for _, p := range fused.Params() {
					for _, g := range p.Grad.Data {
						if math.Float64bits(g) != 0 {
							t.Fatalf("%s: Adam left %s's gradient at %v, want +0", what, p.Name, g)
						}
					}
				}
			}
			want := walk.forward(ref.Body, evalX, false)
			requireBits(t, "eval features, whole batch", fused.Body.Forward(evalX, false), want)
			want = walk.forward(ref.Head, want, false)
			requireBits(t, "eval logits, whole batch", fused.Forward(evalX, false), want)
			requireBits(t, "eval logits, 64-row blocks", fused.Logits(evalX), want)
		})
	}
}

// TestFusedLaneMatchesLeafWalk: a server-style Trainer — the lane attached
// when GOMAXPROCS >= 2, inline otherwise — gives the leaf walk's logits at
// every step and its parameters after the last, and once released, its wide eval-mode walk (the back
// half of the blocks on the twin, whose layer tree fuses the same groups)
// gives the leaf walk's logits. check.sh runs it at -cpu 1,2.
func TestFusedLaneMatchesLeafWalk(t *testing.T) {
	evalX := tensor.Randn(stats.NewRNG(42), 300, inputDim, 1)
	for _, a := range fusedArchs(t) {
		if a.name != "ResNet20" && a.name != "ResNet56" && a.name != "ResNet56-LN" {
			continue
		}
		t.Run(a.name, func(t *testing.T) {
			fused, ref := twinNets(a, 9)
			walk := newLeafWalk()
			tr := nn.NewTrainer(fused, nn.NewAdam(1e-2))
			wide := tr.AttachLane()
			ropt := nn.NewAdam(1e-2)
			rng := stats.NewRNG(10)
			for step, rows := range []int{32, 33, 1, 32, 32} {
				x := tensor.Randn(rng, rows, inputDim, 1)
				logits := fused.Forward(x, true)
				rlogits := walk.forward(ref.Head, walk.forward(ref.Body, x, true), true)
				requireBits(t, fmt.Sprintf("step %d, logits", step), logits, rlogits)
				tr.Step(fusedGrad(logits), nil)
				walk.backward(ref.Body, walk.backward(ref.Head, fusedGrad(rlogits)))
				ropt.Step(ref.Params())
			}
			tr.Release()
			requireSameParams(t, "after the last step", fused, ref)
			want := walk.forward(ref.Head, walk.forward(ref.Body, evalX, false), false)
			requireBits(t, "eval logits", fused.Logits(evalX), want)
			if nn.HasTwin(fused) != wide {
				t.Fatalf("twin built: %v, want %v (whether the lane attached)", nn.HasTwin(fused), wide)
			}
		})
	}
}

// constLayer is a test layer that outputs a fixed block whatever its input,
// and passes the gradient through: it lets a residual add see operands the
// test picks, NaN pairs included.
type constLayer struct {
	out *tensor.Matrix
}

func (c *constLayer) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix { return c.out.Clone() }
func (c *constLayer) Backward(dout *tensor.Matrix) *tensor.Matrix     { return dout.Clone() }
func (c *constLayer) Params() []*nn.Param                             { return nil }
func (c *constLayer) Snapshot(*nn.StateDict, string)                  {}
func (c *constLayer) Restore(*nn.StateDict, string) error             { return nil }

// TestFusedSpecialValues drives the fused residual add and the mask-free ReLU
// backward with the values that tell their expressions apart: NaN pairs with
// distinct payloads (which operand of inner + x a NaN sum keeps), ±0, ±Inf,
// subnormals and NaNs of both signs (which outputs the backward passes a
// gradient through). The NaN bits must match the leaf walk's exactly, except
// at the NaN pairs on the generic path (see nanPairs).
func TestFusedSpecialValues(t *testing.T) {
	nan := func(sign, payload uint64) float64 {
		return math.Float64frombits(sign<<63 | 0x7ff8_0000_0000_0000 | payload)
	}
	specials := []float64{nan(0, 1), nan(0, 2), nan(1, 3), nan(0, 4), math.Copysign(0, -1), 0, 1, -1,
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5, -0.5, nan(0, 5), 3}
	// inner holds different NaN payloads than x in the same places, and
	// every special against every other across the rows.
	const rows, cols = 16, 16
	x, inner, dout := tensor.New(rows, cols), tensor.New(rows, cols), tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, specials[(i+j)%len(specials)])
			inner.Set(i, j, specials[(i*3+j+1)%len(specials)])
			dout.Set(i, j, float64(i*cols+j)-100.5)
		}
	}
	pairs := nanPairs(inner, x)
	for _, tree := range []struct {
		name  string
		seq   *nn.Sequential
		pairs []bool
	}{
		{"Residual→ReLU", nn.NewSequential(nn.NewResidual(&constLayer{out: inner}), nn.NewReLU()), pairs},
		{"ReLU", nn.NewSequential(nn.NewReLU()), nil},
		{"Residual→ReLU→ReLU", nn.NewSequential(nn.NewResidual(&constLayer{out: inner}), nn.NewReLU(), nn.NewReLU()), pairs},
	} {
		t.Run(tree.name, func(t *testing.T) {
			walk := newLeafWalk()
			want := walk.forward(tree.seq, x, true)
			flipped := requireRectifiedBits(t, "train forward", tree.seq.Forward(x, true), want, tree.pairs)
			requireBitsExcept(t, "backward", tree.seq.Backward(dout), walk.backward(tree.seq, dout), flipped)
			requireRectifiedBits(t, "eval forward", tree.seq.Forward(x, false), walk.forward(tree.seq, x, false), tree.pairs)
		})
	}
}

// nanPairs marks where a + b adds two NaNs, when the kernel path is the
// generic one; on the assembly paths it returns nil. There the fused sum is
// Go's a + b, and which NaN survives, sign included, is the compiler's
// choice of operand order (DESIGN §2), so after the ReLU a NaN may face a
// +0. The assembly keeps x86's first-operand rule, which addRef spells out.
func nanPairs(a, b *tensor.Matrix) []bool {
	if tensor.ReadKernelStats().Path != "generic" {
		return nil
	}
	pairs := make([]bool, len(a.Data))
	for i := range pairs {
		pairs[i] = math.IsNaN(a.Data[i]) && math.IsNaN(b.Data[i])
	}
	return pairs
}

// requireRectifiedBits is requireBits where, at the positions pairs marks, a
// NaN may also face another NaN or a +0. It returns the positions where one
// side is a NaN and the other +0: there the ReLU backward passed the
// gradient on one side and stopped it on the other.
func requireRectifiedBits(t *testing.T, what string, got, want *tensor.Matrix, pairs []bool) []bool {
	t.Helper()
	if pairs == nil {
		requireBits(t, what, got, want)
		return nil
	}
	flipped := make([]bool, len(pairs))
	for i, loose := range pairs {
		if !loose {
			continue
		}
		g, w := got.Data[i], want.Data[i]
		gz, wz := math.Float64bits(g) == 0, math.Float64bits(w) == 0
		if !(math.IsNaN(g) || gz) || !(math.IsNaN(w) || wz) {
			t.Fatalf("%s: at a NaN pair the fused network has %#x, the leaf walk %#x; want a NaN or +0 on each side",
				what, math.Float64bits(g), math.Float64bits(w))
		}
		flipped[i] = gz != wz
	}
	requireBitsExcept(t, what, got, want, pairs)
	return flipped
}

// requireBitsExcept is requireBits with the positions skip marks left out.
func requireBitsExcept(t *testing.T, what string, got, want *tensor.Matrix, skip []bool) {
	t.Helper()
	if skip == nil {
		requireBits(t, what, got, want)
		return
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: the fused network differs from the leaf walk in shape", what)
	}
	for i, v := range got.Data {
		if !skip[i] && math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: the fused network differs from the leaf walk at %d: %#x, want %#x",
				what, i, math.Float64bits(v), math.Float64bits(want.Data[i]))
		}
	}
}
