package nn

import (
	"runtime/debug"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// The allocation-regression suite: after warm-up, the training hot path must
// not allocate. GC is disabled for the measurement so sync.Pool-backed
// scratch buffers cannot be reclaimed mid-run and show up as spurious
// allocations.

func noGC(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

func TestDenseSteadyStateAllocs(t *testing.T) {
	noGC(t)
	rng := stats.NewRNG(1)
	d := NewDense(rng, 32, 16)
	x := tensor.Randn(rng, 8, 32, 1)
	dout := tensor.Randn(rng, 8, 16, 0.1)
	for i := 0; i < 3; i++ { // warm-up: buffers reach steady-state capacity
		d.Forward(x, true)
		d.Backward(dout)
	}
	allocs := testing.AllocsPerRun(50, func() {
		d.Forward(x, true)
		d.Backward(dout)
	})
	if allocs != 0 {
		t.Errorf("Dense forward+backward allocates %v objects/op in steady state, want 0", allocs)
	}
}

// TestNetworkSteadyStateAllocs drives a full MLP train step — forward, loss,
// backward, zero-grads — and requires zero allocations once buffers are warm.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	noGC(t)
	rng := stats.NewRNG(2)
	net := NewNetwork("alloc-test",
		NewSequential(NewDense(rng, 20, 24), NewReLU(), NewDense(rng, 24, 12), NewTanh()),
		NewSequential(NewDense(rng, 12, 5)),
	)
	params := net.Params()
	x := tensor.Randn(rng, 16, 20, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 5
	}
	grad := tensor.New(16, 5)
	step := func() {
		logits := net.Forward(x, true)
		SoftmaxCrossEntropyInto(grad, logits, labels)
		ZeroGrads(params)
		net.Backward(grad, nil)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("MLP train step allocates %v objects/op in steady state, want 0", allocs)
	}
}

// TestLossIntoVariantsAllocFree checks the Into losses individually: with a
// warm scratch arena they must not allocate.
func TestLossIntoVariantsAllocFree(t *testing.T) {
	noGC(t)
	rng := stats.NewRNG(3)
	logits := tensor.Randn(rng, 10, 7, 1)
	teacher := tensor.Randn(rng, 10, 7, 1)
	target := tensor.Randn(rng, 10, 7, 1)
	labels := make([]int, 10)
	grad := tensor.New(10, 7)
	warm := func() {
		SoftmaxCrossEntropyInto(grad, logits, labels)
		KLDistillInto(grad, logits, teacher, 2)
		MSEInto(grad, logits, target)
	}
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Errorf("Into-losses allocate %v objects/op with a warm arena, want 0", allocs)
	}
}

// TestLaneStepAllocs: a step with the lane attached hands its work off
// through the fixed ring and allocates nothing.
func TestLaneStepAllocs(t *testing.T) {
	noGC(t)
	r := newLaneRun()
	if !r.tr.AttachLane() {
		t.Skip("the lane needs GOMAXPROCS >= 2")
	}
	defer r.tr.Release()
	rng := stats.NewRNG(4)
	x := tensor.Randn(rng, laneBatch, laneIn, 1)
	labels := make([]int, laneBatch)
	grad := tensor.New(laneBatch, laneOut)
	step := func() {
		logits := r.net.Forward(x, true)
		SoftmaxCrossEntropyInto(grad, logits, labels)
		r.tr.Step(grad, nil)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("lane-attached train step allocates %v objects/op in steady state, want 0", allocs)
	}
}
