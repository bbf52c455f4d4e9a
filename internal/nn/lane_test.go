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

// laneRun is one model in training: net, its Adam and its trainer. With
// parkEachStep set and the lane attached, train waits after every step until
// the lane has parked, so every step's first post or forward meets a parked
// lane.
type laneRun struct {
	net          *Network
	opt          *Adam
	tr           *Trainer
	parkEachStep bool
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
			if r.parkEachStep && r.tr.lane != nil {
				untilParked()
			}
		}
	}
}

// untilParked yields until the lane reports parked. It reads no clock: a
// lane that never parks hangs the test.
func untilParked() {
	for theLane.state.Load() != laneAsleep {
		runtime.Gosched()
	}
}

// untilLaneDone yields until the lane has run every task posted. Unlike
// join it runs none itself, and it reads no clock: a lane that never wakes
// hangs the test.
func untilLaneDone() {
	for theLane.tail.Load() != theLane.head.Load() {
		runtime.Gosched()
	}
}

// ceGrad runs r's train-mode forward on a batch and returns the
// cross-entropy gradient of its logits.
func (r *laneRun) ceGrad(x *tensor.Matrix, labels []int) *tensor.Matrix {
	logits := r.net.Forward(x, true)
	grad := tensor.New(logits.Rows, logits.Cols)
	SoftmaxCrossEntropyInto(grad, logits, labels)
	return grad
}

// fixedBatch is one batch of the suite's shape.
func fixedBatch() (*tensor.Matrix, []int) {
	labels := make([]int, laneBatch)
	for i := range labels {
		labels[i] = i % laneOut
	}
	return tensor.Randn(stats.NewRNG(4), laneBatch, laneIn, 1), labels
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

	// A lane that parks after every step's Adam pass, so that every
	// forward's wake and every backward meets a parked lane, gives them too.
	parked := newLaneRun()
	parked.parkEachStep = true
	if parked.tr.AttachLane() != attached {
		t.Fatal("the lane did not attach a third time")
	}
	parked.train()
	parked.tr.Release()
	requireSameState(t, parked, want)
}

// TestLaneParksWhenIdle: once a step's Adam pass is done and no task
// follows, the held lane parks.
func TestLaneParksWhenIdle(t *testing.T) {
	r := newLaneRun()
	if !r.tr.AttachLane() {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	defer r.tr.Release()
	x, labels := fixedBatch()
	r.tr.Step(r.ceGrad(x, labels), nil)
	untilParked()
}

// TestLaneWakesOnPost: a step with no forward before it, whose backward's
// first post meets the parked lane, wakes it, and the lane itself runs the
// step's Adam pass (join and the gates would run the tasks of a lane that
// never woke, so the test waits on tail instead); the bits are the inline
// trainer's for the same two steps.
func TestLaneWakesOnPost(t *testing.T) {
	want, got := newLaneRun(), newLaneRun()
	if !got.tr.AttachLane() {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	x, labels := fixedBatch()
	for _, r := range []*laneRun{want, got} {
		grad := r.ceGrad(x, labels)
		r.tr.Step(grad, nil)
		if r == got {
			untilParked() // the first step's Adam pass is done, too
		}
		r.tr.Step(grad, nil) // backpropagates the same forward's caches again
		if r == got {
			untilLaneDone()
		}
	}
	got.tr.Release()
	requireSameState(t, got, want)

	// Back-to-back posts, each just after the last holder released the
	// lane, as the lane decides to park: the lane must wake for every one.
	d := NewDense(stats.NewRNG(3), laneIn, laneWidth)
	d.Forward(tensor.Randn(stats.NewRNG(4), 8, laneIn, 1), true)
	dout := tensor.Randn(stats.NewRNG(5), 8, laneWidth, 1)
	for i := 0; i < 1000; i++ {
		l := acquireLane()
		l.post(laneTask{d: d, dout: dout})
		untilLaneDone()
		l.release()
	}

	// Back-to-back wide walks, the same race through infer's post and join.
	x = tensor.Randn(stats.NewRNG(6), 2*inferBlock+1, laneIn, 1)
	whole := got.net.Forward(x, false).Clone()
	for i := 0; i < 1000; i++ {
		if !sameBits(got.net.Logits(x).Data, whole.Data) {
			t.Fatalf("walk %d: Logits differ from the whole-batch forward", i)
		}
	}
}

// TestLaneJoinRunsUnclaimed: join runs each task the lane has not claimed,
// so a holder never waits on a lane that is not running. Here a task reaches
// the ring with no wake, so the parked lane sees it only if it was still
// re-reading head; join must run it, with the bits of the same gradient run
// inline, or hang.
func TestLaneJoinRunsUnclaimed(t *testing.T) {
	l := acquireLane()
	if l == nil {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	l.release()
	untilParked() // released: the lane parks, and nothing below wakes it
	x := tensor.Randn(stats.NewRNG(4), 8, laneIn, 1)
	dout := tensor.Randn(stats.NewRNG(5), 8, laneWidth, 1)
	d, inline := NewDense(stats.NewRNG(3), laneIn, laneWidth), NewDense(stats.NewRNG(3), laneIn, laneWidth)
	d.Forward(x, true)
	inline.Forward(x, true)
	inline.accumulateGrads(dout)
	if l = acquireLane(); l == nil {
		t.Fatal("the lane did not attach again after a release")
	}
	h := l.head.Load()
	l.ring[h%laneRingSize] = laneTask{d: d, dout: dout}
	l.head.Store(h + 1) // a post without its wake
	l.join()
	l.release()
	for i, p := range d.Params() {
		if !sameBits(p.Grad.Data, inline.Params()[i].Grad.Data) {
			t.Fatalf("%s: join's gradient differs from the inline one", p.Name)
		}
	}
}

// TestLaneGateRunsUnclaimedAdam: a gate runs the step's Adam pass when the
// lane has not claimed it, so a forward never waits on a lane that is not
// running. Here the pass reaches the ring with no wake while the lane is
// parked; the next forward's first gate must run it, with the inline bits.
func TestLaneGateRunsUnclaimedAdam(t *testing.T) {
	want, got := newLaneRun(), newLaneRun()
	if !got.tr.AttachLane() {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	x, labels := fixedBatch()
	want.tr.Step(want.ceGrad(x, labels), nil)
	want.opt.Step(want.tr.params) // a second update, of the zero gradients
	want.net.Forward(x, true)

	got.tr.Step(got.ceGrad(x, labels), nil)
	untilParked() // the first step's Adam pass is done
	l := got.tr.lane
	l.base += int64(len(got.tr.params))
	h := l.head.Load()
	l.ring[h%laneRingSize] = laneTask{k: got.tr.adam.nextCoeffs()}
	l.head.Store(h + 1) // update's post, without its wake
	got.net.Forward(x, true)
	got.tr.Release()
	requireSameState(t, got, want)
}

// TestLaneParkedReleaseReacquire: a trainer releases the lane while it is
// parked, it stays parked, and the next trainer's attach and run give the
// inline bits.
func TestLaneParkedReleaseReacquire(t *testing.T) {
	want := inlineReference(t)
	first := newLaneRun()
	if !first.tr.AttachLane() {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	x, labels := fixedBatch()
	first.tr.Step(first.ceGrad(x, labels), nil)
	untilParked()
	first.tr.Release()
	if theLane.state.Load() != laneAsleep {
		t.Fatal("a release woke the parked lane")
	}
	got := newLaneRun()
	if !got.tr.AttachLane() {
		t.Fatal("the lane did not attach again after a release while parked")
	}
	got.train()
	got.tr.Release()
	requireSameState(t, got, want)
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
