package models

import (
	"testing"

	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestRegistryContainsPaperModels(t *testing.T) {
	for _, name := range []string{"ResNet11", "ResNet20", "ResNet29", "ResNet56"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q) failed: %v", name, err)
		}
	}
	if _, err := Lookup("VGG16"); err == nil {
		t.Error("Lookup of unregistered model should fail")
	}
}

func TestCapacityOrderingMatchesPaper(t *testing.T) {
	rng := stats.NewRNG(1)
	order := []string{"ResNet11", "ResNet20", "ResNet29", "ResNet56"}
	var prev int
	for _, name := range order {
		net, err := BuildNamed(rng, name, 32, 10)
		if err != nil {
			t.Fatal(err)
		}
		n := net.ParamCount()
		if n <= prev {
			t.Errorf("%s has %d params, not larger than previous %d", name, n, prev)
		}
		prev = n
	}
}

func TestBuildForwardShapes(t *testing.T) {
	rng := stats.NewRNG(2)
	for _, name := range Names() {
		net, err := BuildNamed(rng, name, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng, 5, 16, 1)
		logits := net.Logits(x)
		if logits.Rows != 5 || logits.Cols != 7 {
			t.Errorf("%s logits shape %dx%d, want 5x7", name, logits.Rows, logits.Cols)
		}
		spec, _ := Lookup(name)
		if got := net.Features(x).Cols; got != spec.Hidden {
			t.Errorf("%s feature dim %d, want %d", name, got, spec.Hidden)
		}
	}
}

func TestBuildTrainable(t *testing.T) {
	// A freshly built model must be able to fit a tiny dataset — catches
	// dead initializations or broken residual wiring.
	rng := stats.NewRNG(3)
	net, err := BuildNamed(rng, "ResNet11", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 30, 4, 1)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
		// Make classes separable by shifting the first feature.
		x.Set(i, 0, x.At(i, 0)+float64(labels[i])*3)
	}
	opt := nn.NewAdam(0.01)
	grad := tensor.New(len(labels), 3)
	for epoch := 0; epoch < 100; epoch++ {
		logits := net.Forward(x, true)
		nn.SoftmaxCrossEntropyInto(grad, logits, labels)
		nn.ZeroGrads(net.Params())
		net.Backward(grad, nil)
		opt.Step(net.Params())
	}
	if acc := stats.Accuracy(net.Predict(x), labels); acc < 0.9 {
		t.Errorf("ResNet11 failed to fit a separable toy set: acc=%v", acc)
	}
}

func TestFleets(t *testing.T) {
	het := HeterogeneousFleet(7)
	if len(het) != 7 {
		t.Fatalf("HeterogeneousFleet(7) returned %d entries", len(het))
	}
	want := []string{"ResNet11", "ResNet20", "ResNet29", "ResNet11", "ResNet20", "ResNet29", "ResNet11"}
	for i := range want {
		if het[i] != want[i] {
			t.Errorf("het[%d] = %s, want %s", i, het[i], want[i])
		}
	}
	for _, name := range HomogeneousFleet(4) {
		if name != "ResNet20" {
			t.Errorf("HomogeneousFleet entry = %s, want ResNet20", name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestBuildDeterministicBySeed(t *testing.T) {
	a, _ := BuildNamed(stats.NewRNG(5), "ResNet20", 8, 4)
	b, _ := BuildNamed(stats.NewRNG(5), "ResNet20", 8, 4)
	fa := nn.FlattenParams(a.Params())
	fb := nn.FlattenParams(b.Params())
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same-seed builds must be identical")
		}
	}
}
