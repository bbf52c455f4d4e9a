package nn

import (
	"runtime"
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
		NewSequential(NewDense(rng, 20, 24), NewReLU(), NewDense(rng, 24, 12), NewLayerNorm(12)),
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
	teacher := softmaxTempRows(tensor.Randn(rng, 10, 7, 1), 2)
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

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS=1, which
// would keep every eval-mode walk off the lane.
func mallocsPerRun(runs uint64, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs
}

// TestInferAllocs: a steady-state eval-mode walk allocates only its result
// — a matrix header and its data for Logits and Features, the []int for
// Predict — both inline and with half its blocks on the lane.
func TestInferAllocs(t *testing.T) {
	noGC(t)
	x := tensor.Randn(stats.NewRNG(6), 300, laneIn, 1)
	for _, wide := range []bool{false, true} {
		net := laneNet()
		if wide {
			tr := NewTrainer(net, NewAdam(1e-3))
			if !tr.AttachLane() {
				t.Log("wide walks skipped: the lane needs GOMAXPROCS >= 2")
				continue
			}
			tr.Release()
		}
		for _, c := range []struct {
			name string
			walk func()
			want uint64
		}{
			{"Logits", func() { net.Logits(x) }, 2},
			{"Features", func() { net.Features(x) }, 2},
			{"Predict", func() { net.Predict(x) }, 1},
		} {
			c.walk() // first use sizes the buffers and builds the twin
			if got := mallocsPerRun(20, c.walk); got != c.want {
				t.Errorf("%s (wide %v) allocates %d objects per call, want %d", c.name, wide, got, c.want)
			}
		}
		if wide != (net.twin != nil) {
			t.Errorf("wide %v, but twin built: %v", wide, net.twin != nil)
		}
	}
}

// TestInferBuffersStayBlockSized: after a 300-row Logits, no layer buffer —
// the network's, or its twin's when the walk went wide — holds more than
// inferBlock rows, however many rows the walk covered; and the output of a
// Dense→BatchNorm group or a Residual that a ReLU follows, which the fused
// sweep writes into the ReLU's buffer instead (Sequential.Forward), is never
// allocated.
func TestInferBuffersStayBlockSized(t *testing.T) {
	x := tensor.Randn(stats.NewRNG(7), 300, laneIn, 1)
	net := laneNet()
	net.Logits(x)
	requireBlockSized(t, net)
	tr := NewTrainer(net, NewAdam(1e-3))
	if tr.AttachLane() {
		tr.Release()
		net.Logits(x)
		if net.twin == nil {
			t.Fatal("the walk did not go wide")
		}
		requireBlockSized(t, net)
		requireBlockSized(t, net.twin)
	}
}

func requireBlockSized(t *testing.T, net *Network) {
	t.Helper()
	var outs []*tensor.Matrix
	var walk func(l Layer, fused bool)
	// fusedOut takes the output buffer of a layer whose ReLU successor, when
	// fused, owns the output instead.
	fusedOut := func(l Layer, out *tensor.Matrix, fused bool) {
		switch {
		case !fused:
			outs = append(outs, out)
		case out != nil:
			t.Errorf("%T before a ReLU allocated its own output (%d values)", l, cap(out.Data))
		}
	}
	walk = func(l Layer, fused bool) {
		switch v := l.(type) {
		case *Sequential:
			for i, c := range v.Layers {
				_, relu := layerAt(v.Layers, i+1).(*ReLU)
				if _, bn := c.(*BatchNorm); bn && i > 0 {
					_, dense := v.Layers[i-1].(*Dense)
					relu = relu && dense
				}
				walk(c, relu)
			}
		case *Residual:
			walk(v.Inner, false)
			fusedOut(v, v.out, fused)
		case *Dense:
			outs = append(outs, v.out)
		case *BatchNorm:
			fusedOut(v, v.out, fused)
		case *ReLU:
			outs = append(outs, v.out)
		default:
			t.Fatalf("requireBlockSized does not know %T", l)
		}
	}
	walk(net.Body, false)
	walk(net.Head, false)
	for i, m := range outs {
		if m == nil {
			t.Errorf("layer buffer %d was never written", i)
		} else if cap(m.Data) > inferBlock*m.Cols {
			t.Errorf("layer buffer %d holds %d values, more than %d rows of %d", i, cap(m.Data), inferBlock, m.Cols)
		}
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
