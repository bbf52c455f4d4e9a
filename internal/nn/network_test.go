package nn

import (
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// buildTinyNet returns a small two-block classifier for testing.
func buildTinyNet(rng *stats.RNG, in, hidden, classes int) *Network {
	body := NewSequential(
		NewDense(rng, in, hidden),
		NewReLU(),
		NewResidual(NewSequential(NewDense(rng, hidden, hidden), NewReLU(), NewDense(rng, hidden, hidden))),
		NewReLU(),
	)
	head := NewSequential(NewDense(rng, hidden, classes))
	return NewNetwork("tiny", body, head)
}

// xorLike generates a 2-class dataset that is not linearly separable.
func xorLike(rng *stats.RNG, n int) (*tensor.Matrix, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a*b > 0 {
			labels[i] = 1
		}
	}
	return x, labels
}

func TestNetworkLearnsXOR(t *testing.T) {
	rng := stats.NewRNG(42)
	net := buildTinyNet(rng, 2, 16, 2)
	x, labels := xorLike(rng, 256)
	opt := NewAdam(0.01)

	for epoch := 0; epoch < 150; epoch++ {
		logits := net.Forward(x, true)
		_, grad := softmaxCrossEntropy(logits, labels)
		ZeroGrads(net.Params())
		net.Backward(grad, nil)
		opt.Step(net.Params())
	}

	acc := stats.Accuracy(net.Predict(x), labels)
	if acc < 0.95 {
		t.Errorf("XOR training accuracy = %v, want >= 0.95", acc)
	}
}

func TestNetworkFeatureGradInjection(t *testing.T) {
	// Training purely via a feature-space MSE target (zero logit gradient)
	// must move the body parameters but leave head gradients zero.
	rng := stats.NewRNG(7)
	net := buildTinyNet(rng, 3, 8, 2)
	x := tensor.Randn(rng, 4, 3, 1)

	feats, logits := net.ForwardSplit(x)
	target := tensor.New(feats.Rows, feats.Cols) // pull features toward 0
	_, dfeat := mse(feats, target)

	ZeroGrads(net.Params())
	zeroLogitGrad := tensor.New(logits.Rows, logits.Cols)
	net.Backward(zeroLogitGrad, dfeat)

	var bodyNorm, headNorm float64
	for _, p := range net.Body.Params() {
		bodyNorm += p.Grad.Norm()
	}
	for _, p := range net.Head.Params() {
		headNorm += p.Grad.Norm()
	}
	if bodyNorm == 0 {
		t.Error("feature-space gradient did not reach body parameters")
	}
	if headNorm != 0 {
		t.Error("zero logit gradient should leave head gradients zero")
	}
}

func TestNetworkFeaturesMatchForwardSplit(t *testing.T) {
	rng := stats.NewRNG(8)
	net := buildTinyNet(rng, 3, 8, 2)
	x := tensor.Randn(rng, 5, 3, 1)
	evalFeats := net.Features(x)
	trainFeats, _ := net.ForwardSplit(x)
	if !evalFeats.Equal(trainFeats, 1e-12) {
		t.Error("eval and train features differ for a deterministic network")
	}
}

func TestNetworkPredictShape(t *testing.T) {
	rng := stats.NewRNG(9)
	net := buildTinyNet(rng, 4, 8, 3)
	x := tensor.Randn(rng, 6, 4, 1)
	pred := net.Predict(x)
	if len(pred) != 6 {
		t.Fatalf("Predict returned %d values for 6 rows", len(pred))
	}
	for _, p := range pred {
		if p < 0 || p >= 3 {
			t.Fatalf("prediction %d out of class range", p)
		}
	}
}

func TestNetworkParamRoundtripPreservesOutput(t *testing.T) {
	rng := stats.NewRNG(10)
	src := buildTinyNet(rng, 3, 8, 2)
	dst := buildTinyNet(stats.NewRNG(99), 3, 8, 2)
	x := tensor.Randn(rng, 4, 3, 1)

	if src.Logits(x).Equal(dst.Logits(x), 1e-9) {
		t.Fatal("differently seeded networks should differ")
	}
	if err := SetFlatParams(dst.Params(), FlattenParams(src.Params())); err != nil {
		t.Fatal(err)
	}
	if !src.Logits(x).Equal(dst.Logits(x), 1e-12) {
		t.Error("copying flat params must make outputs identical")
	}
}

// TestFeatureDim: the features the body emits are as wide as its hidden
// layer, for a batch of any size.
func TestFeatureDim(t *testing.T) {
	rng := stats.NewRNG(11)
	net := buildTinyNet(rng, 5, 12, 3)
	for _, rows := range []int{1, 7} {
		if got := net.Features(tensor.New(rows, 5)).Cols; got != 12 {
			t.Errorf("%d rows: feature width = %d, want 12", rows, got)
		}
	}
}

// TestNetworkParamsBuiltOnce: Params returns the list NewNetwork built —
// body then head, the same backing array every call, with no allocation —
// and a caller appending to it gets a copy, never a write into the list.
func TestNetworkParamsBuiltOnce(t *testing.T) {
	net := buildTinyNet(stats.NewRNG(12), 5, 12, 3)
	want := append(net.Body.Params(), net.Head.Params()...)
	got := net.Params()
	if len(got) != len(want) || &got[0] != &net.Params()[0] {
		t.Fatalf("Params: %d params, want %d, one list for every call", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d is %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { net.Params() }); allocs != 0 {
		t.Errorf("Params allocates %v times a call, want 0", allocs)
	}
	extra := append(net.Params(), &Param{Name: "extra"})
	if len(net.Params()) != len(want) || &extra[0] == &net.Params()[0] {
		t.Error("appending to Params' result wrote into the network's list")
	}
}

// TestDropoutTrainEvalBehaviour: ReLU zeroes about half of a standard-normal
// batch, gives the same values in eval mode as in train mode, and keeps a
// backward mask only after a train-mode forward.
func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := stats.NewRNG(12)
	r := NewReLU()
	x := tensor.Randn(rng, 10, 10, 1)

	eval := r.Forward(x, false).Clone()
	train := r.Forward(x, true)
	if !eval.Equal(train, 0) {
		t.Error("eval-mode ReLU must give the train-mode values")
	}
	zeros := 0
	for _, v := range train.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 20 || zeros > 80 {
		t.Errorf("ReLU zeroed %d/100, want ~50", zeros)
	}
	r.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Error("Backward after an eval-mode Forward should panic")
		}
	}()
	r.Backward(x)
}

// TestDropoutBadRatePanics: a normalization layer of no width panics at
// construction.
func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLayerNorm(0) should panic")
		}
	}()
	NewLayerNorm(0)
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	layers := map[string]Layer{
		"dense":   NewDense(stats.NewRNG(1), 2, 2),
		"relu":    NewReLU(),
		"tanh":    NewBatchNorm(2),
		"dropout": NewResidual(NewDense(stats.NewRNG(1), 2, 2)),
	}
	for name, l := range layers {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Backward without train Forward should panic")
				}
			}()
			l.Backward(tensor.New(2, 2))
		})
	}
}
