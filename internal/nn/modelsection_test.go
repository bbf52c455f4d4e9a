package nn_test

import (
	"bytes"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// TestModelSectionMatchesCaptureState pins SnapshotModelSection, which
// encodes straight from the live tensors, to the reference it replaced:
// CaptureState(net, opt).Encode(), byte for byte. It covers the zoo's depths
// and the LayerNorm variant, each with no optimizer, an Adam with no moments
// yet, an Adam that has stepped only some params, once or several times.
func TestModelSectionMatchesCaptureState(t *testing.T) {
	opts := []struct {
		name  string
		build func() nn.Optimizer
		steps int
	}{
		{"no optimizer", func() nn.Optimizer { return nil }, 2},
		{"Adam without state", func() nn.Optimizer { return nn.NewAdam(1e-3) }, 0},
		{"Adam with state", func() nn.Optimizer { return nn.NewAdam(1e-3) }, 2},
		{"Adam after one step", func() nn.Optimizer { return nn.NewAdam(1e-3) }, 1},
		{"Adam after five steps", func() nn.Optimizer { return nn.NewAdam(5e-2) }, 5},
	}
	for _, model := range []string{"ResNet11", "ResNet20", "ResNet56", "ResNet20-LN"} {
		for _, o := range opts {
			rng := stats.NewRNG(7)
			net, err := models.BuildNamed(rng, model, inputDim, classes)
			if err != nil {
				t.Fatal(err)
			}
			opt := o.build()
			params := net.Params()
			labels := make([]int, benchBatch)
			for i := range labels {
				labels[i] = i % classes
			}
			grad := tensor.New(benchBatch, classes)
			for s := 0; s < o.steps; s++ {
				logits := net.Forward(tensor.Randn(rng, benchBatch, inputDim, 1), true)
				nn.SoftmaxCrossEntropyInto(grad, logits, labels)
				nn.ZeroGrads(params)
				net.Backward(grad, nil)
				if opt != nil {
					// The first half of the params only: entries for params
					// without moments must be skipped, as Snapshot skips them.
					opt.Step(params[:len(params)/2])
				}
			}

			d := ckpt.NewDict(nil)
			nn.SnapshotModelSection(d, "model", net, opt)
			d.Put("after", []byte{1}) // the model section must end where its bytes do
			got, _ := d.Get("model")
			want := nn.CaptureState(net, opt).Encode()
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: the section encoded from live tensors (%d bytes) differs from CaptureState's encoding (%d bytes)",
					model, o.name, len(got), len(want))
			}
		}
	}
}
