package nn

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"fedpkd/internal/dataset"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// The lane ≡ inline suite: a trainer with the lane attached must leave every
// value, gradient, Adam moment and step count, and the snapshot bytes, bit
// for bit where the inline trainer leaves them. check.sh runs it at -cpu 1,2
// and under -race.

const (
	laneRows   = 70 // batches of 32, 32 and 6: the short one resizes the batch buffer
	laneBatch  = 32
	laneEpochs = 3
	laneIn     = 12
	laneWidth  = 16
	laneOut    = 4
)

// laneNet is a BatchNorm residual classifier: Dense gradients on the lane,
// BatchNorm γ/β written by the caller and stepped by the lane, running
// statistics written by both, and a residual chain.
func laneNet() *Network {
	rng := stats.NewRNG(5)
	body := NewSequential(
		NewDense(rng, laneIn, laneWidth), NewBatchNorm(laneWidth), NewReLU(),
		NewResidual(NewSequential(
			NewDense(rng, laneWidth, laneWidth), NewBatchNorm(laneWidth), NewReLU(),
			NewDense(rng, laneWidth, laneWidth), NewBatchNorm(laneWidth),
		)),
		NewReLU(),
	)
	return NewNetwork("lane", body, NewSequential(NewDense(rng, laneWidth, laneOut)))
}

// laneRun is one model in training: net, its Adam and its trainer.
type laneRun struct {
	net *Network
	opt *Adam
	tr  *Trainer
}

func newLaneRun() *laneRun {
	net, opt := laneNet(), NewAdam(1e-2)
	return &laneRun{net: net, opt: opt, tr: NewTrainer(net, opt)}
}

// train runs the epochs as fl's loops do: batches gathered into one reused
// buffer, cross-entropy on the logits plus a feature-boundary MSE gradient,
// then Step.
func (r *laneRun) train() {
	rng := stats.NewRNG(9)
	x := tensor.Randn(rng, laneRows, laneIn, 1)
	target := tensor.Randn(rng, laneRows, laneWidth, 1)
	labels := make([]int, laneRows)
	for i := range labels {
		labels[i] = i % laneOut
	}
	var xb, tb, gradLogits, gradFeat *tensor.Matrix
	yb := make([]int, laneBatch)
	for e := 0; e < laneEpochs; e++ {
		for _, idx := range dataset.Batches(rng, laneRows, laneBatch) {
			xb = dataset.GatherRowsInto(xb, x, idx)
			tb = dataset.GatherRowsInto(tb, target, idx)
			lb := yb[:len(idx)]
			for i, j := range idx {
				lb[i] = labels[j]
			}
			feats, logits := r.net.ForwardSplit(xb)
			gradLogits = tensor.Ensure(gradLogits, logits.Rows, logits.Cols)
			SoftmaxCrossEntropyInto(gradLogits, logits, lb)
			gradFeat = tensor.Ensure(gradFeat, feats.Rows, feats.Cols)
			MSEInto(gradFeat, feats, tb)
			r.tr.Step(gradLogits, gradFeat)
		}
	}
}

func inlineReference(t *testing.T) *laneRun {
	t.Helper()
	ref := newLaneRun()
	ref.train()
	return ref
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameState fails unless got's model and optimizer state equal want's
// bit for bit.
func requireSameState(t *testing.T, got, want *laneRun) {
	t.Helper()
	gp, wp := got.net.Params(), want.net.Params()
	for i := range wp {
		if !sameBits(gp[i].Value.Data, wp[i].Value.Data) {
			t.Errorf("param %d (%s) value differs", i, wp[i].Name)
		}
		if !sameBits(gp[i].Grad.Data, wp[i].Grad.Data) {
			t.Errorf("param %d (%s) gradient differs", i, wp[i].Name)
		}
		gs, ws := got.opt.state[gp[i]], want.opt.state[wp[i]]
		if !sameBits(gs.m.Data, ws.m.Data) || !sameBits(gs.v.Data, ws.v.Data) {
			t.Errorf("param %d (%s) Adam moments differ", i, wp[i].Name)
		}
	}
	if got.opt.t != want.opt.t {
		t.Errorf("Adam step count %d, want %d", got.opt.t, want.opt.t)
	}
	if !bytes.Equal(CaptureState(got.net, got.opt).Encode(), CaptureState(want.net, want.opt).Encode()) {
		t.Error("snapshot bytes differ")
	}
}

func TestLaneMatchesInline(t *testing.T) {
	want := inlineReference(t)
	if want.opt.t != laneEpochs*3 {
		t.Fatalf("reference ran %d steps, want %d", want.opt.t, laneEpochs*3)
	}

	started := laneStarted.Load()
	got := newLaneRun()
	attached := got.tr.AttachLane()
	if runtime.GOMAXPROCS(0) < 2 {
		if attached || laneStarted.Load() != started {
			t.Fatal("the lane attached or started at GOMAXPROCS 1")
		}
	} else if !attached {
		t.Fatal("the lane did not attach at GOMAXPROCS >= 2")
	}
	got.train()
	got.tr.Release()
	requireSameState(t, got, want)

	// A released lane attaches again, and a second run gives the same bits.
	again := newLaneRun()
	if again.tr.AttachLane() != attached {
		t.Fatal("the lane did not attach again after Release")
	}
	again.train()
	again.tr.Release()
	requireSameState(t, again, want)
}

// TestLaneContention races two trainers for the lane: both try to attach
// before either trains, so at most one wins (exactly one when the lane can
// run), and the loser runs inline. Both must give the inline bits.
func TestLaneContention(t *testing.T) {
	want := inlineReference(t)
	runs := [2]*laneRun{newLaneRun(), newLaneRun()}
	var attached [2]bool
	var tried, done sync.WaitGroup
	tried.Add(len(runs))
	done.Add(len(runs))
	for i, r := range runs {
		go func() {
			defer done.Done()
			attached[i] = r.tr.AttachLane()
			tried.Done()
			tried.Wait() // nobody releases before both have tried
			r.train()
			r.tr.Release()
		}()
	}
	done.Wait()
	wins := 0
	for _, a := range attached {
		if a {
			wins++
		}
	}
	if want := min(1, runtime.GOMAXPROCS(0)-1); wins != want {
		t.Fatalf("%d trainers attached the lane, want %d", wins, want)
	}
	for _, r := range runs {
		requireSameState(t, r, want)
	}
}

// TestLaneNeedsAdamAndGates: the lane runs only Adam, and only for networks
// whose every param-holding layer can gate its forward on it.
func TestLaneNeedsAdamAndGates(t *testing.T) {
	if NewTrainer(laneNet(), &wrappedAdam{NewAdam(1e-3)}).AttachLane() {
		t.Error("the lane attached to a trainer whose optimizer only wraps Adam")
	}
	alien := NewNetwork("alien", NewSequential(paramLayer{NewDense(stats.NewRNG(1), 2, 2)}), NewSequential())
	if NewTrainer(alien, NewAdam(1e-3)).AttachLane() {
		t.Error("the lane attached to a network with an ungated param-holding layer")
	}
	if tr := NewTrainer(laneNet(), NewAdam(1e-3)); tr.AttachLane() {
		tr.Release() // the refusals above left the lane free
	}
}

// paramLayer is a param-holding layer the lane does not know.
type paramLayer struct{ Layer }

// wrappedAdam is a non-Adam optimizer of the shape FedProx's proximal update
// has: it embeds an Adam and would adjust the gradients before stepping it.
type wrappedAdam struct{ Optimizer }
