// Package nn is the deep-learning engine: layers with explicit
// forward/backward passes, classification and distillation losses, and
// first-order optimizers. It is a from-scratch substrate standing in for the
// PyTorch stack the paper trained on; see DESIGN.md §1 for the substitution
// rationale.
//
// The engine is layer-wise rather than tape-based: every Layer caches what
// its Backward needs during Forward. A Layer is therefore stateful and NOT
// safe for concurrent use; in the federated simulation every client owns its
// own model, which is what makes parallel client training safe. The one
// exception is the lane (lane.go): while a Trainer has it attached, a
// model's weight gradients and updates run on the lane's goroutine, handed
// off through its ring and gated so the two goroutines never touch the same
// data at once; and an eval-mode walk over such a model may run half its
// row blocks there on a twin (infer.go), which shares the model's params,
// owns its buffers and never trains.
package nn

import (
	"fmt"

	"fedpkd/internal/tensor"
)

// Param is one trainable parameter matrix and its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// newParam allocates a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *tensor.Matrix) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Rows, value.Cols),
	}
}

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch (rows = samples) and returns the layer output.
// When train is true the layer caches whatever Backward will need; eval-mode
// forwards are cache-free and leave training state (e.g. dropout) disabled.
//
// Backward consumes dL/d(output) and returns dL/d(input), accumulating
// parameter gradients into Params. It must be called after a train-mode
// Forward on the same batch.
//
// Buffer contract: layers write their results into persistent per-layer
// buffers that are reused (and resized in place) across calls, so training
// epochs allocate no matrices in steady state. A matrix returned by Forward
// or Backward is therefore only valid until the next call on the same
// layer; callers that retain results across forwards (prototype averaging,
// logit ensembling) must copy them — Network.Features/Logits return fresh
// matrices.
// Snapshot writes the layer's persistent state into sd under hierarchical
// names rooted at prefix; Restore reads it back. Persistent state is what
// must survive a process restart for training to continue bit-identically —
// parameter values and BatchNorm running statistics — not transient forward
// caches, which the next forward recomputes. Stateless layers implement both
// as no-ops so containers can recurse uniformly.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(dout *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	Snapshot(sd *StateDict, prefix string)
	Restore(sd *StateDict, prefix string) error
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of scalar parameters.
func ParamCount(params []*Param) int {
	var n int
	for _, p := range params {
		n += len(p.Value.Data)
	}
	return n
}

// FlattenParams copies all parameter values into one flat vector, in Params
// order. Used for FedAvg-style weight transfer and the FedProx proximal
// term.
func FlattenParams(params []*Param) []float64 {
	return FlattenParamsInto(make([]float64, ParamCount(params)), params)
}

// FlattenParamsInto is FlattenParams into dst, which must hold exactly
// ParamCount(params) values; it returns dst.
func FlattenParamsInto(dst []float64, params []*Param) []float64 {
	if len(dst) != ParamCount(params) {
		panic(fmt.Sprintf("nn: FlattenParamsInto got %d values, want %d", len(dst), ParamCount(params)))
	}
	off := 0
	for _, p := range params {
		off += copy(dst[off:], p.Value.Data)
	}
	return dst
}

// SetFlatParams writes a flat vector (as produced by FlattenParams for a
// structurally identical parameter list) back into params. It returns an
// error if the total element count differs.
func SetFlatParams(params []*Param, flat []float64) error {
	want := ParamCount(params)
	if len(flat) != want {
		return fmt.Errorf("nn: SetFlatParams got %d values, want %d", len(flat), want)
	}
	off := 0
	for _, p := range params {
		n := len(p.Value.Data)
		copy(p.Value.Data, flat[off:off+n])
		off += n
	}
	return nil
}
