package nn_test

import (
	"math"
	"testing"

	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// inferRows are the walk sizes the block tests cover: empty, under one
// block, one block exactly, one row past it, and several blocks with a
// short tail. check.sh runs these tests at -cpu 1,2 and under -race.
var inferRows = []int{0, 1, 3, 63, 64, 65, 129, 300}

// inferNet builds model and runs train-mode forwards over random batches,
// so its BatchNorm running statistics are no longer the identity.
func inferNet(t *testing.T, model string, seed uint64) *nn.Network {
	t.Helper()
	rng := stats.NewRNG(seed)
	net, err := models.BuildNamed(rng, model, inputDim, classes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		net.Forward(tensor.Randn(rng, benchBatch, inputDim, 1), true)
	}
	return net
}

func bitsEqual(a, b []float64) bool {
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

// requireWholeBatchBits fails unless Logits, Features, VisitFeatures and
// Predict over every leading-row count of x give what Forward(x, false)
// gives over the whole batch, bit for bit.
func requireWholeBatchBits(t *testing.T, mode string, net *nn.Network, x *tensor.Matrix) {
	t.Helper()
	for _, rows := range inferRows {
		xr := tensor.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		wantFeats := net.Body.Forward(xr, false).Clone()
		want := net.Forward(xr, false).Clone()

		if got := net.Logits(xr); got.Rows != rows || got.Cols != classes || !bitsEqual(got.Data, want.Data) {
			t.Errorf("%s, %d rows: Logits differ from the whole-batch Forward", mode, rows)
		}
		if got := net.Features(xr); got.Rows != rows || got.Cols != models.FeatureWidth || !bitsEqual(got.Data, wantFeats.Data) {
			t.Errorf("%s, %d rows: Features differ from the whole-batch body forward", mode, rows)
		}
		var visited []float64
		net.VisitFeatures(xr, func(lo int, feats *tensor.Matrix) {
			if lo*models.FeatureWidth != len(visited) {
				t.Errorf("%s, %d rows: VisitFeatures block at row %d after %d values", mode, rows, lo, len(visited))
			}
			visited = append(visited, feats.Data...)
		})
		if !bitsEqual(visited, wantFeats.Data) {
			t.Errorf("%s, %d rows: VisitFeatures blocks differ from the whole-batch body forward", mode, rows)
		}
		pred := net.Predict(xr)
		if len(pred) != rows {
			t.Fatalf("%s: Predict returned %d classes for %d rows", mode, len(pred), rows)
		}
		for i, p := range pred {
			if p != stats.Argmax(want.Row(i)) {
				t.Errorf("%s, %d rows: Predict row %d is %d, the whole-batch argmax %d", mode, rows, i, p, stats.Argmax(want.Row(i)))
				break
			}
		}
	}
}

// TestInferBlocksMatchWholeBatch: eval-mode walks run in 64-row blocks,
// inline or — on a network a Trainer has attached the lane to — with the
// back half of the blocks on the lane's twin. Every way must give the
// whole-batch Forward's bits, a walk must stay inline while someone else
// holds the lane, and the twin must see params written after it was built.
func TestInferBlocksMatchWholeBatch(t *testing.T) {
	x := tensor.Randn(stats.NewRNG(3), inferRows[len(inferRows)-1], inputDim, 1)
	for _, model := range []string{"ResNet11", "ResNet56", "ResNet56-LN"} {
		t.Run(model, func(t *testing.T) {
			net := inferNet(t, model, 1)
			requireWholeBatchBits(t, "inline", net, x)

			tr := nn.NewTrainer(net, nn.NewAdam(1e-3))
			wide := tr.AttachLane()
			tr.Release()

			other := nn.NewTrainer(inferNet(t, model, 2), nn.NewAdam(1e-3))
			if other.AttachLane() {
				requireWholeBatchBits(t, "lane held", net, x)
				other.Release()
				if nn.HasTwin(net) {
					t.Fatal("a walk went wide while another trainer held the lane")
				}
			}

			requireWholeBatchBits(t, "wide", net, x)
			if nn.HasTwin(net) != wide {
				t.Fatalf("twin built: %v, want %v (whether the lane attached)", nn.HasTwin(net), wide)
			}

			params := net.Params()
			flat := nn.FlattenParams(params)
			for i := range flat {
				flat[i] *= 0.75 // keeps every running variance positive
			}
			if err := nn.SetFlatParams(params, flat); err != nil {
				t.Fatal(err)
			}
			requireWholeBatchBits(t, "wide after SetFlatParams", net, x)

			if err := nn.ApplyState(net, nil, nn.CaptureState(inferNet(t, model, 4), nil)); err != nil {
				t.Fatal(err)
			}
			requireWholeBatchBits(t, "wide after Restore", net, x)
		})
	}
}
