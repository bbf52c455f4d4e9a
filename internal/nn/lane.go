package nn

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fedpkd/internal/tensor"
)

// The lane is one persistent helper goroutine per process that a training
// step hands its off-critical-path work to (DESIGN.md §2 "The step's second
// lane"). The calling goroutine keeps the forward pass, the losses and the
// input-gradient chain; the lane runs each Dense layer's weight and bias
// gradients during backward, then the Adam update param by param in forward
// order, overlapping the next batch's forward; the update leaves each
// gradient zero (Optimizer). Every product, sum and Adam expression is the one
// the inline step runs, in the same order, so both give identical bits.
//
// Three rules keep the two goroutines off each other's data:
//  1. Step joins every gradient task before it returns, so the caller may
//     overwrite the batch the first layer read. Only Adam overlaps the next
//     forward.
//  2. A param-holding layer's Forward waits (laneGate) until the lane's
//     progress counter shows its params updated, so no layer reads a weight,
//     a BatchNorm's γ/β or its running statistics (Params too, which Adam
//     writes) before the update lands.
//  3. Release drains the lane, so what it wrote is final for Logits,
//     Features, evaluation and checkpoint snapshots.
//
// Between trainers, an eval-mode walk over a server network may hold the
// lane for one call (infer.go): it posts one task, the back half of its row
// blocks on the network's twin, runs the front half, joins and releases.
//
// Handoff is a fixed single-producer ring with atomic head, next and tail:
// tasks posted, claimed and done. The lane spins between a step's gradient
// tasks, where the next post is microseconds away, and parks on wake when
// released, or once an Adam pass is done and laneParkSpin polls bring no
// task: the rest of that forward, the step's longest gap, then costs no CPU.
// A train-mode forward wakes it as it returns, so the wake's latency hides
// under the loss, and a post wakes it should it still be asleep. A wake can
// still come late: how soon a parked goroutine runs again is the scheduler's
// and the host's. So join, and a gate, claim and run every task the lane has
// not yet claimed: the holder never waits for a lane that is not running,
// only for the tasks the lane has started.

// laneRingSize bounds the tasks in flight; a ResNet56 step posts 57.
const laneRingSize = 256

// laneParkSpin is how many idle polls the lane makes after an Adam pass
// before it parks. None: a forward's want keeps the lane from parking, or
// wakes it, before any post of the next step, so polls there only burn the
// core. In a sweep of 0, 64, 256 and 1024 polls on train_inproc, 0 had the
// best median CPU and round rate (DESIGN.md §2).
const laneParkSpin = 0

// The lane's sleep state. Only the lane sets laneAsleep; a waker that moves
// the state off laneAsleep owes the lane one token on wake, so exactly one
// token is ever in flight.
const (
	laneAwake  int32 = iota // polling
	laneAsleep              // parked on wake, or about to be
	laneWanted              // a train-mode forward has returned: a post is near
)

// laneTask is a Dense layer's weight and bias gradients from dout; or, when
// job is set, rows [lo, hi) of an eval-mode walk run on net, a twin; or,
// when neither is, one Adam pass over the attached params with
// coefficients k.
type laneTask struct {
	d    *Dense
	dout *tensor.Matrix
	k    tensor.AdamCoeffs

	job    *inferJob
	net    *Network
	lo, hi int
}

type lane struct {
	held  atomic.Bool   // a trainer or an eval-mode walk holds the lane
	state atomic.Int32  // laneAwake, laneAsleep or laneWanted
	wake  chan struct{} // the token that ends a park
	head  atomic.Uint64 // tasks posted; only the holder writes it
	next  atomic.Uint64 // tasks claimed, by the lane or by the joining holder
	tail  atomic.Uint64 // tasks done
	ring  [laneRingSize]laneTask

	// updated counts the params the lane has stepped since attach; gates
	// compare it against base + their position.
	updated atomic.Int64

	// Set by the attached trainer before its first post, read by the lane.
	params []*Param
	states []*adamState

	// base is updated's value at the start of the last Adam pass posted,
	// −len(params) before the first; only the attached trainer touches it.
	base int64
}

var (
	theLane     = lane{wake: make(chan struct{}, 1)}
	laneOnce    sync.Once
	laneStarted atomic.Bool
)

// acquireLane hands the lane to the caller, or returns nil when it would
// not help (GOMAXPROCS < 2) or someone else holds it.
func acquireLane() *lane {
	if runtime.GOMAXPROCS(0) < 2 || !theLane.held.CompareAndSwap(false, true) {
		return nil
	}
	laneOnce.Do(func() {
		laneStarted.Store(true)
		go theLane.run()
	})
	return &theLane
}

func (l *lane) run() {
	afterAdam := false // the last task was an Adam pass: the next post is a forward away
	for polls := 1; ; polls++ {
		i, ok := l.claim()
		if !ok {
			switch {
			case !l.held.Load() || afterAdam && polls > laneParkSpin:
				afterAdam = false
				l.park()
			case polls%64 == 0:
				runtime.Gosched()
			}
			continue
		}
		if afterAdam = l.ring[i%laneRingSize].isAdam(); afterAdam {
			// A forward's want comes after this pass; clear an older one.
			l.state.Store(laneAwake)
		}
		l.runTask(i)
		polls = 0
	}
}

// claim takes the oldest task no one has claimed, if there is one. The lane
// and the holder, joining or at a gate, are its only callers.
func (l *lane) claim() (uint64, bool) {
	i := l.next.Load()
	return i, i != l.head.Load() && l.next.CompareAndSwap(i, i+1)
}

func (t *laneTask) isAdam() bool { return t.d == nil && t.job == nil }

// runTask runs claimed task i and counts it done. Tasks finish out of claim
// order only while the holder joins, so between joins tail is also the
// oldest slot still in use.
func (l *lane) runTask(i uint64) {
	t := &l.ring[i%laneRingSize]
	switch {
	case t.d != nil:
		t.d.accumulateGrads(t.dout)
	case t.job != nil:
		t.job.run(t.net, t.lo, t.hi)
	default:
		l.adam(t.k)
	}
	*t = laneTask{}
	l.tail.Add(1)
}

// park sleeps until a waker's token, unless a forward has said a post is
// near or a task has come since the lane last found none to claim. Setting
// laneAsleep before re-reading head pairs with post's store of head before it
// reads the state: one of the two sees the other, so no post is missed.
func (l *lane) park() {
	perturb()
	if !l.state.CompareAndSwap(laneAwake, laneAsleep) {
		l.state.Store(laneAwake) // laneWanted: keep polling
		return
	}
	perturb()
	if l.next.Load() != l.head.Load() && l.state.CompareAndSwap(laneAsleep, laneAwake) {
		return
	}
	<-l.wake
}

// wakeIfAsleep ends a park after a post.
func (l *lane) wakeIfAsleep() {
	if l.state.Load() == laneAsleep && l.state.CompareAndSwap(laneAsleep, laneAwake) {
		l.wake <- struct{}{}
	}
}

// want tells the lane a post is near: a train-mode forward has returned, and
// the backward that follows its loss posts. It wakes a parked lane, and keeps
// a polling one from parking.
func (l *lane) want() {
	perturb()
	if l.state.Swap(laneWanted) == laneAsleep {
		l.wake <- struct{}{}
	}
}

// release hands the lane back; the holder has joined every task it posted.
func (l *lane) release() { l.held.Store(false) }

// adam steps every attached param in forward order, which zeroes its
// gradient, publishing progress after each so gated forwards can proceed.
func (l *lane) adam(k tensor.AdamCoeffs) {
	for i, p := range l.params {
		st := l.states[i]
		tensor.AdamStep(p.Value.Data, st.m.Data, st.v.Data, p.Grad.Data, k)
		l.updated.Add(1)
	}
}

// spinUntil busy-waits for done. It yields the processor only every 1024
// polls, so the goroutine it waits on runs even when every P is busy: a
// yield can move the caller to the other P, away from its cache and its P's
// scratch-arena matrices.
func spinUntil(done func() bool) {
	for polls := 1; !done(); polls++ {
		if polls%1024 == 0 {
			runtime.Gosched()
		}
	}
}

func (l *lane) post(t laneTask) {
	perturb()
	h := l.head.Load()
	spinUntil(func() bool { return h-l.tail.Load() < laneRingSize })
	l.ring[h%laneRingSize] = t
	l.head.Store(h + 1)
	l.wakeIfAsleep()
}

// join returns once every task posted is done. It runs every task the lane
// has not claimed, then waits for those the lane is running.
func (l *lane) join() {
	perturb()
	spinUntil(func() bool {
		if i, ok := l.claim(); ok {
			l.runTask(i)
		}
		return l.tail.Load() == l.head.Load()
	})
}

// laneGate holds a param-holding layer's Forward until the lane has stepped
// that layer's params. The zero value, a layer with no lane, never waits.
type laneGate struct {
	l   *lane
	end int64 // position just past the layer's last param in the attached list
}

func (g *laneGate) wait() {
	if g.l == nil {
		return
	}
	perturb()
	target := g.l.base + g.end
	spinUntil(func() bool {
		// The step's Adam pass, if the lane has not claimed it yet.
		if i, ok := g.l.claim(); ok {
			g.l.runTask(i)
		}
		return g.l.updated.Load() >= target
	})
}

// bindGates points the gate of every param-holding layer in layer at l (nil
// unbinds), numbering params as Params lists them from *next. It reports
// false when a layer with params has no gate.
func bindGates(layer Layer, l *lane, next *int64) bool {
	var g *laneGate
	switch v := layer.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			if !bindGates(c, l, next) {
				return false
			}
		}
		return true
	case *Residual:
		return bindGates(v.Inner, l, next)
	case *Dense:
		g = &v.gate
	case *BatchNorm:
		g = &v.gate
	case *LayerNorm:
		g = &v.gate
	default:
		return len(layer.Params()) == 0
	}
	*next += int64(len(layer.Params()))
	*g = laneGate{l: l, end: *next}
	return true
}

func bindNetwork(n *Network, l *lane) bool {
	n.lane = l
	var next int64
	return bindGates(n.Body, l, &next) && bindGates(n.Head, l, &next)
}

// Trainer runs the tail of a training step — backward, then the optimizer
// update, which leaves the gradients zero — for one network and its
// optimizer. Between steps every gradient is zero. By default each step runs
// inline; AttachLane moves the weight gradients and the update onto the
// process's lane, with identical bits. A Trainer, like its network, is for
// one goroutine.
type Trainer struct {
	net    *Network
	opt    Optimizer
	params []*Param
	lane   *lane // non-nil while attached
	adam   *Adam // opt, while attached
}

// NewTrainer returns an inline trainer for net and opt. It zeroes every
// gradient, which is what Step expects between steps; each Step's update
// then leaves them zero again.
func NewTrainer(net *Network, opt Optimizer) *Trainer {
	params := net.Params()
	ZeroGrads(params)
	return &Trainer{net: net, opt: opt, params: params}
}

// AttachLane tries to move the trainer's off-critical-path work onto the
// lane and reports whether it did. It does not when GOMAXPROCS < 2, another
// trainer holds the lane, the optimizer is not Adam, or a layer with params
// cannot gate its forward; the steps then run inline. Only a caller that
// leaves a core idle should attach: the lane polls through each backward
// while attached, and parks only from the end of a step's Adam pass to the
// next train-mode forward's return. Pair it with Release. Once attached, the
// network's eval-mode forwards may also use the lane whenever it is free
// (infer.go).
func (t *Trainer) AttachLane() bool {
	adam, ok := t.opt.(*Adam)
	if !ok {
		return false
	}
	l := acquireLane()
	if l == nil {
		return false
	}
	if !bindNetwork(t.net, l) {
		bindNetwork(t.net, nil)
		l.release()
		return false
	}
	t.net.wide = true
	l.params = t.params
	if cap(l.states) < len(t.params) {
		l.states = make([]*adamState, len(t.params))
	}
	l.states = l.states[:len(t.params)]
	l.updated.Store(0)
	l.base = -int64(len(t.params))
	t.lane, t.adam = l, adam
	return true
}

// Release drains the lane and detaches it: once it returns, every value,
// gradient and optimizer state the lane wrote is final. It is a no-op for an
// inline trainer.
func (t *Trainer) Release() {
	l := t.lane
	if l == nil {
		return
	}
	l.join()
	bindNetwork(t.net, nil)
	l.params = nil
	clear(l.states)
	t.lane, t.adam = nil, nil
	l.release()
}

// Step backpropagates dlogits (and dfeat, a feature-boundary gradient, if
// non-nil; see Network.Backward) and applies the optimizer update, which
// zeroes the gradients. With the lane attached the update is still running
// when Step returns; the next forward waits for it layer by layer.
func (t *Trainer) Step(dlogits, dfeat *tensor.Matrix) {
	t.net.Backward(dlogits, dfeat)
	l := t.lane
	if l == nil {
		t.opt.Step(t.params)
		return
	}
	l.join()
	if l.base < 0 { // first pass: Adam creates its state now, as inline
		for i, p := range t.params {
			l.states[i] = t.adam.stateOf(p)
		}
	}
	l.base += int64(len(t.params))
	l.post(laneTask{k: t.adam.nextCoeffs()})
}
