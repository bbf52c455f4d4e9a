package nn

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// stateTestNet builds a small network with every stateful layer kind (Dense,
// BatchNorm, LayerNorm, Residual) from a fixed seed, so two calls with the
// same seed produce bit-identical models.
func stateTestNet(seed uint64) *Network {
	rng := stats.NewRNG(seed)
	body := NewSequential(
		NewDense(rng, 6, 8),
		NewBatchNorm(8),
		NewReLU(),
		NewResidual(NewSequential(NewDense(rng, 8, 8), NewLayerNorm(8), NewReLU())),
	)
	head := NewSequential(NewDense(rng, 8, 4))
	return NewNetwork("state-test", body, head)
}

// trainSteps runs n deterministic training steps (synthetic batches from a
// fixed stream, squared-error-style gradient) on net with opt.
func trainSteps(t testing.TB, net *Network, opt Optimizer, dataSeed uint64, n int) {
	t.Helper()
	rng := stats.NewRNG(dataSeed)
	params := net.Params()
	for s := 0; s < n; s++ {
		x := tensor.Randn(rng, 5, 6, 1)
		ZeroGrads(params)
		logits := net.Forward(x, true)
		dl := logits.Clone()
		for i := range dl.Data {
			dl.Data[i] -= 0.5 // arbitrary deterministic target pull
		}
		net.Backward(dl, nil)
		opt.Step(params)
	}
}

// assertBitIdentical fails unless every parameter of a and b matches bit for
// bit.
func assertBitIdentical(t *testing.T, a, b *Network, context string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", context, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("%s: param %d (%s) diverges at element %d: %v vs %v",
					context, i, pa[i].Name, j, pa[i].Value.Data[j], pb[i].Value.Data[j])
			}
		}
	}
}

// roundTrip encodes the captured state and decodes it again, so the test
// covers the full binary path, not just the in-memory dict.
func roundTrip(t *testing.T, net *Network, opt Optimizer) *StateDict {
	t.Helper()
	sd := CaptureState(net, opt)
	decoded, err := DecodeStateDict(sd.Encode())
	if err != nil {
		t.Fatalf("decode state dict: %v", err)
	}
	if decoded.Len() != sd.Len() {
		t.Fatalf("decoded %d entries, captured %d", decoded.Len(), sd.Len())
	}
	return decoded
}

// TestAdamStateRoundTripBitEquality is the optimizer-state acceptance
// criterion: snapshot after k steps, restore into a freshly constructed
// identical model+optimizer, and the NEXT training steps must be
// bit-identical — which can only hold if Adam's moments and step count (the
// bias corrections depend on t) and BatchNorm's running statistics all
// survived the round trip exactly.
func TestAdamStateRoundTripBitEquality(t *testing.T) {
	orig := stateTestNet(7)
	origOpt := NewAdam(0.01)
	trainSteps(t, orig, origOpt, 99, 4)

	sd := roundTrip(t, orig, origOpt)

	fresh := stateTestNet(8) // different seed: restore must overwrite everything
	freshOpt := NewAdam(0.01)
	if err := ApplyState(fresh, freshOpt, sd); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	assertBitIdentical(t, orig, fresh, "after restore")

	// The divergence test: continue both for several steps on identical data.
	trainSteps(t, orig, origOpt, 1234, 3)
	trainSteps(t, fresh, freshOpt, 1234, 3)
	assertBitIdentical(t, orig, fresh, "after 3 post-restore steps")
}

// TestAdamStepCountMatters guards against a regression that silently drops
// the step count: restoring everything but t must NOT reproduce the run.
func TestAdamStepCountMatters(t *testing.T) {
	orig := stateTestNet(7)
	origOpt := NewAdam(0.01)
	trainSteps(t, orig, origOpt, 99, 4)

	sd := CaptureState(orig, origOpt)
	fresh := stateTestNet(7)
	freshOpt := NewAdam(0.01)
	if err := ApplyState(fresh, freshOpt, sd); err != nil {
		t.Fatal(err)
	}
	freshOpt.t = 0 // sabotage: pretend the step count was dropped

	trainSteps(t, orig, origOpt, 1234, 1)
	trainSteps(t, fresh, freshOpt, 1234, 1)
	pa, pb := orig.Params(), fresh.Params()
	same := true
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("dropping Adam's step count did not change the next step; the test would miss a t-serialization regression")
	}
}

// TestSGDMomentumRoundTripBitEquality covers an Adam that has stepped only
// some params: restoring it into an optimizer with moments for every param
// must drop the ones the snapshot lacks, as a fresh optimizer has none.
func TestSGDMomentumRoundTripBitEquality(t *testing.T) {
	orig := stateTestNet(3)
	origOpt := NewAdam(0.05)
	params := orig.Params()
	origOpt.Step(params[:len(params)/2]) // zero grads: moments, no move

	sd := roundTrip(t, orig, origOpt)

	fresh := stateTestNet(4)
	freshOpt := NewAdam(0.05)
	trainSteps(t, fresh, freshOpt, 42, 3) // nonzero moments for every param
	if err := ApplyState(fresh, freshOpt, sd); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	trainSteps(t, orig, origOpt, 777, 3)
	trainSteps(t, fresh, freshOpt, 777, 3)
	assertBitIdentical(t, orig, fresh, "after 3 post-restore Adam steps")
}

// TestScheduledRoundTrip chains two resumes: the run restored once, stepped,
// and restored again must stay on the uninterrupted run's bias-correction
// schedule.
func TestScheduledRoundTrip(t *testing.T) {
	orig := stateTestNet(5)
	origOpt := NewAdam(0.01)
	trainSteps(t, orig, origOpt, 11, 3)

	mid := stateTestNet(6)
	midOpt := NewAdam(0.01)
	if err := ApplyState(mid, midOpt, roundTrip(t, orig, origOpt)); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	trainSteps(t, orig, origOpt, 22, 2)
	trainSteps(t, mid, midOpt, 22, 2)

	fresh := stateTestNet(7)
	freshOpt := NewAdam(0.01)
	if err := ApplyState(fresh, freshOpt, roundTrip(t, mid, midOpt)); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	trainSteps(t, orig, origOpt, 33, 3)
	trainSteps(t, fresh, freshOpt, 33, 3)
	assertBitIdentical(t, orig, fresh, "after two resumes and 3 more steps")
}

// TestBatchNormRunningStatsCaptured asserts the running statistics appear in
// the snapshot by name and change restore behaviour — state a flat
// parameter vector carries only implicitly.
func TestBatchNormRunningStatsCaptured(t *testing.T) {
	net := stateTestNet(9)
	trainSteps(t, net, NewAdam(0.1), 5, 2)
	sd := CaptureState(net, nil)
	var sawMean, sawVar bool
	for _, name := range sd.Names() {
		if strings.HasSuffix(name, ".running_mean") {
			sawMean = true
		}
		if strings.HasSuffix(name, ".running_var") {
			sawVar = true
		}
	}
	if !sawMean || !sawVar {
		t.Fatalf("snapshot lacks BatchNorm running stats; entries: %v", sd.Names())
	}
}

// TestRestoreErrorsNameTheEntry pins the diagnosable-failure contract: a
// shape mismatch must say which entry and both shapes.
func TestRestoreErrorsNameTheEntry(t *testing.T) {
	small := NewNetwork("small",
		NewSequential(NewDense(stats.NewRNG(1), 4, 4)),
		NewSequential(NewDense(stats.NewRNG(2), 4, 2)))
	big := NewNetwork("big",
		NewSequential(NewDense(stats.NewRNG(1), 4, 6)),
		NewSequential(NewDense(stats.NewRNG(2), 6, 2)))
	sd := CaptureState(small, nil)
	err := ApplyState(big, nil, sd)
	if err == nil {
		t.Fatal("restoring a 4x4 snapshot into a 4x6 model succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "net.body.0") || !strings.Contains(msg, "4x4") || !strings.Contains(msg, "4x6") {
		t.Fatalf("error does not name entry and expected-vs-got shapes: %v", err)
	}
}

// maxStateDictExpansion bounds DecodeStateDict's heap per input byte, over a
// fixed 1 KiB for the dict and error text. The widest ratio is an int entry
// with a one-byte name: 17 encoded bytes, a 72-byte stateEntry and an index
// entry, both with their growth copies.
const maxStateDictExpansion = 32

// FuzzDecodeStateDict holds the state-dict codec to its contract on
// arbitrary bytes: no panic, heap within the stated bound, and either an
// error or a dict whose re-encoding decodes to the same bytes again.
func FuzzDecodeStateDict(f *testing.F) {
	// A small net keeps the seeds short enough for the fuzzer to mutate well.
	rng := stats.NewRNG(7)
	net := NewNetwork("fuzz", NewSequential(NewDense(rng, 6, 2), NewBatchNorm(2)), NewSequential(NewDense(rng, 2, 2)))
	adam := NewAdam(0.01)
	trainSteps(f, net, adam, 99, 2)
	f.Add(CaptureState(net, adam).Encode())
	// A never-stepped Adam: a step count and no moments.
	f.Add(CaptureState(net, NewAdam(0.05)).Encode())
	if _, err := DecodeStateDict(CaptureState(net, adam).Encode()); err != nil { // first-use allocations
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew := allocated(func() { DecodeStateDict(data) }); grew > uint64(maxStateDictExpansion*len(data)+1024) {
			t.Fatalf("DecodeStateDict of %d bytes allocated %d", len(data), grew)
		}
		sd, err := DecodeStateDict(data)
		if err != nil {
			return
		}
		enc := sd.Encode()
		back, err := DecodeStateDict(enc)
		if err != nil {
			t.Fatalf("re-encoded state dict rejected: %v", err)
		}
		if again := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("state dict changed across a re-encode:\n %x\n %x", enc, again)
		}
	})
}

// TestStateDictMissingEntry pins the missing-entry error path.
func TestStateDictMissingEntry(t *testing.T) {
	sd := NewStateDict()
	if err := sd.CopyTensorInto("nope", tensor.New(1, 1)); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("missing entry error = %v", err)
	}
	if _, err := sd.Int("nope"); err == nil {
		t.Fatal("Int on missing entry should error")
	}
}

// TestLoadParamsErrorsNameIndexAndShape pins the diagnostics of loading a
// model checkpoint: errors identify the section, the offending param index,
// and the expected-vs-got shape or the missing name.
func TestLoadParamsErrorsNameIndexAndShape(t *testing.T) {
	dense := func() (*Dense, *Network) {
		d := NewDense(stats.NewRNG(1), 3, 3)
		return d, NewNetwork("one", NewSequential(d), NewSequential())
	}
	_, saved := dense()
	data := saveModel(t, saved)

	// Same names, wrong shape on param 1.
	d, net := dense()
	d.b = newParam("b", tensor.New(1, 5))
	err := loadModel(data, net)
	if err == nil {
		t.Fatal("shape mismatch accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"model"`) || !strings.Contains(msg, "param 1") || !strings.Contains(msg, "1x3") || !strings.Contains(msg, "1x5") {
		t.Fatalf("shape error lacks section, index or shapes: %v", err)
	}

	// Wrong name on param 0.
	d, net = dense()
	d.w.Name = "X"
	err = loadModel(data, net)
	if err == nil {
		t.Fatal("name mismatch accepted")
	}
	if !strings.Contains(err.Error(), "param 0") || !strings.Contains(err.Error(), `"net.body.0.0.X"`) {
		t.Fatalf("name error lacks index or entry: %v", err)
	}
}

// allocated reports the fewest heap bytes any of three runs of fn allocated,
// which screens out allocations the fuzzing engine makes concurrently.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
