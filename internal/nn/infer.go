package nn

import (
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Eval-mode forwards (Logits, Features, Predict, VisitFeatures) walk their
// input in blocks of inferBlock rows, each a row view of x, so no layer
// buffer grows past max(training batch, inferBlock) rows however large the
// dataset (DESIGN.md §2 "Inference in row blocks"). Every row's arithmetic
// is independent of the other rows — the NN GEMM's zero skips are per row,
// eval-mode BatchNorm, LayerNorm, activations and residual adds work per row
// or per element — so a blocked forward gives Forward(x, false)'s bits.
// inferBlock is a multiple of the NN kernel's row pairing, which keeps that
// true should a kernel ever couple row pairs.
//
// A network a Trainer has attached the lane to (a server network: it runs
// while the clients are idle) also goes wide: when the lane is free, at
// GOMAXPROCS ≥ 2 and with two blocks or more, the lane runs the back half
// of the blocks on the network's twin — the same layer tree sharing every
// *Param, with buffers of its own — while the caller runs the front half.
const inferBlock = 64

// inferJob is one eval-mode walk over x. Each block's rows are handed to
// visit, argmaxed into pred, or copied into dst, the first sink set; dst is
// allocated on the first block when nil. feats stops the forward at the body.
type inferJob struct {
	x     *tensor.Matrix
	feats bool
	visit func(lo int, feats *tensor.Matrix)
	pred  []int
	dst   *tensor.Matrix
}

// infer runs j over all of j.x's rows, on both cores when n may go wide and
// the lane is free, and returns it with its sinks filled.
func (n *Network) infer(j inferJob) inferJob {
	n.job = j
	rows := j.x.Rows
	if l := n.acquireWide(rows); l != nil {
		if j.pred == nil {
			cols := outCols(n.Body, j.x.Cols)
			if !j.feats {
				cols = outCols(n.Head, cols)
			}
			n.job.dst = tensor.New(rows, cols)
		}
		mid := (rows + inferBlock) / 2 / inferBlock * inferBlock // the block boundary nearest rows/2
		l.post(laneTask{job: &n.job, net: n.twin, lo: mid, hi: rows})
		n.job.run(n, 0, mid)
		l.join()
		l.release()
	} else {
		n.job.run(n, 0, rows)
	}
	j, n.job = n.job, inferJob{}
	return j
}

// acquireWide hands the caller the lane when n may go wide, the walk has
// two blocks or more and the lane is free, building n's twin on first use;
// otherwise it returns nil and the walk runs inline.
func (n *Network) acquireWide(rows int) *lane {
	if !n.wide || rows <= inferBlock {
		return nil
	}
	l := acquireLane()
	if l == nil || n.twin != nil {
		return l
	}
	if n.twin = n.newTwin(); n.twin == nil {
		n.wide = false // a layer has no twin: this network stays inline
		l.release()
		return nil
	}
	return l
}

// run walks rows [lo, hi) of j.x on net, the network or its twin, one block
// at a time; it runs one empty block when lo == hi, so a zero-row walk still
// shapes its result.
func (j *inferJob) run(net *Network, lo, hi int) {
	for r := lo; ; r += inferBlock {
		end := min(r+inferBlock, hi)
		x := j.x
		net.view = tensor.Matrix{Rows: end - r, Cols: x.Cols, Data: x.Data[r*x.Cols : end*x.Cols]}
		out := net.Body.Forward(&net.view, false)
		if !j.feats {
			out = net.Head.Forward(out, false)
		}
		switch {
		case j.visit != nil:
			j.visit(r, out)
		case j.pred != nil:
			for i := 0; i < out.Rows; i++ {
				j.pred[r+i] = stats.Argmax(out.Row(i))
			}
		default:
			if j.dst == nil {
				j.dst = tensor.New(x.Rows, out.Cols)
			}
			copy(j.dst.Data[r*out.Cols:], out.Data)
		}
		if end == hi {
			net.view = tensor.Matrix{} // hold no reference to x past the walk
			return
		}
	}
}

// outCols is the width of l's output for an input of width in. It knows the
// layers newTwin does; every other one of them keeps its input's width.
func outCols(l Layer, in int) int {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			in = outCols(c, in)
		}
	case *Dense:
		return v.Out
	}
	return in
}

// newTwin returns a network with n's layer tree and n's params, and buffers
// of its own, or nil when a layer has no twin. A twin never trains: its
// layers have no lane gate, and the lane runs only eval-mode blocks on it
// while n's trainer, if any, is released. Hyperparameters (BatchNorm and
// LayerNorm Eps) are copied at build; params are shared, so SetFlatParams,
// Restore and training all reach the twin.
func (n *Network) newTwin() *Network {
	body, head := twinOf(n.Body), twinOf(n.Head)
	if body == nil || head == nil {
		return nil
	}
	return NewNetwork(n.Name, body.(*Sequential), head.(*Sequential))
}

func twinOf(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		layers := make([]Layer, len(v.Layers))
		for i, c := range v.Layers {
			if layers[i] = twinOf(c); layers[i] == nil {
				return nil
			}
		}
		return NewSequential(layers...)
	case *Residual:
		if inner := twinOf(v.Inner); inner != nil {
			return NewResidual(inner)
		}
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, w: v.w, b: v.b}
	case *BatchNorm:
		return &BatchNorm{Dim: v.Dim, Momentum: v.Momentum, Eps: v.Eps, gamma: v.gamma, beta: v.beta,
			runningMean: v.runningMean, runningVar: v.runningVar}
	case *LayerNorm:
		return &LayerNorm{Dim: v.Dim, Eps: v.Eps, gamma: v.gamma, beta: v.beta}
	case *ReLU:
		return NewReLU()
	}
	return nil
}
