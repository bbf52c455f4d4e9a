package nn

import "fedpkd/internal/tensor"

// Network is a classifier split into a feature extractor (Body, the paper's
// middle layer R_ω) and a classifier head. The split is load-bearing:
// prototypes (Eq. 5) are averages of Body outputs, and the prototype losses
// (Eqs. 12, 16) inject gradients at the Body/Head boundary.
type Network struct {
	Name string
	Body *Sequential
	Head *Sequential

	params []*Param       // Body's then Head's, built once by NewNetwork
	dfeat  *tensor.Matrix // persistent feature-gradient sum buffer
	lane   *lane          // the lane, while a Trainer has it attached

	// Eval-mode block walks (infer.go). view is the current block's row
	// view of the input and job the walk in progress, both reused so a walk
	// allocates only its result; wide is set when a Trainer attaches the
	// lane, and twin is built on the first wide walk.
	view tensor.Matrix
	job  inferJob
	wide bool
	twin *Network
}

// NewNetwork returns a network with the given body and head. It lists their
// params once, so the layer tree must not change after this call.
func NewNetwork(name string, body, head *Sequential) *Network {
	params := append(body.Params(), head.Params()...)
	return &Network{Name: name, Body: body, Head: head, params: params[:len(params):len(params)]}
}

// Forward returns the logits for a batch. Use train=true only inside a
// training step that will call Backward. A train-mode forward with the lane
// attached wakes it as it returns: the backward's first post is a loss away.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	logits := n.Head.Forward(n.Body.Forward(x, train), train)
	if train && n.lane != nil {
		n.lane.want()
	}
	return logits
}

// ForwardSplit runs a train-mode forward and returns both the feature batch
// and the logits, for losses that touch the feature space.
func (n *Network) ForwardSplit(x *tensor.Matrix) (features, logits *tensor.Matrix) {
	features = n.Body.Forward(x, true)
	logits = n.Head.Forward(features, true)
	if n.lane != nil {
		n.lane.want()
	}
	return features, logits
}

// Backward backpropagates dL/dlogits through head and body into every
// parameter gradient; the gradient of the input itself is never formed
// (Sequential.backwardBody). dfeatExtra, if non-nil, is an additional
// gradient injected at the feature boundary (the prototype-loss gradient); it
// must match the body output shape.
func (n *Network) Backward(dlogits, dfeatExtra *tensor.Matrix) {
	dfeat := n.Head.Backward(dlogits)
	if dfeatExtra != nil {
		n.dfeat = tensor.Ensure(n.dfeat, dfeat.Rows, dfeat.Cols)
		tensor.AddInto(n.dfeat.Data, dfeat.Data, dfeatExtra.Data)
		dfeat = n.dfeat
	}
	n.Body.backwardBody(dfeat)
}

// Features returns the eval-mode feature representation of a batch, computed
// in row blocks (infer.go) with Forward's bits. The result is a fresh matrix
// (not a layer buffer): callers across the codebase retain feature batches
// past subsequent forwards.
func (n *Network) Features(x *tensor.Matrix) *tensor.Matrix {
	return n.infer(inferJob{x: x, feats: true}).dst
}

// VisitFeatures runs the eval-mode feature extractor over x in row blocks
// and calls visit with each block's features, rows [lo, lo+feats.Rows) of x,
// in row order — at least once, so a zero-row x still reports the width.
// feats is a layer buffer, valid only during the call. It never goes wide.
func (n *Network) VisitFeatures(x *tensor.Matrix, visit func(lo int, feats *tensor.Matrix)) {
	n.job = inferJob{x: x, feats: true, visit: visit}
	n.job.run(n, 0, x.Rows)
	n.job = inferJob{}
}

// Logits returns the eval-mode logits of a batch, computed in row blocks
// (infer.go) with Forward's bits. The result is a fresh matrix (not a layer
// buffer): ensemble algorithms collect logits from many clients before
// consuming them, so buffer reuse would corrupt them.
func (n *Network) Logits(x *tensor.Matrix) *tensor.Matrix {
	return n.infer(inferJob{x: x}).dst
}

// Predict returns the argmax class per row of a batch, argmaxing each row
// block's logits in place: it allocates only the result.
func (n *Network) Predict(x *tensor.Matrix) []int {
	return n.infer(inferJob{x: x, pred: make([]int, x.Rows)}).pred
}

// Params returns all trainable parameters, body first: the one list
// NewNetwork built, shared by every caller and read-only. Its capacity is its
// length, so a caller's append copies it rather than writing past its end.
func (n *Network) Params() []*Param { return n.params }

// ParamCount returns the number of scalar parameters in the network.
func (n *Network) ParamCount() int { return ParamCount(n.Params()) }
