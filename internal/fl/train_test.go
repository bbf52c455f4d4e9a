package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"fedpkd/internal/dataset"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestForEachClientRunsAll(t *testing.T) {
	var count int64
	err := ForEachClient(17, func(c int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 17 {
		t.Errorf("ran %d clients, want 17", count)
	}
}

func TestForEachClientPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEachClient(8, func(c int) error {
		if c == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestForEachClientZero(t *testing.T) {
	if err := ForEachClient(0, func(int) error { return errors.New("never") }); err != nil {
		t.Error("zero clients must be a no-op")
	}
}

// trainEnv builds a tiny environment plus a small model for trainer tests.
func trainEnv(t *testing.T) (*Env, *nn.Network) {
	t.Helper()
	spec := dataset.SynthC10(3)
	env, err := NewEnv(EnvConfig{
		Spec:       spec,
		NumClients: 2,
		TrainSize:  300, TestSize: 200, PublicSize: 100,
		Partition: PartitionConfig{Kind: PartitionIID},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.BuildNamed(stats.NewRNG(1), "ResNet11", env.InputDim(), env.Classes())
	if err != nil {
		t.Fatal(err)
	}
	return env, net
}

func TestTrainCEImprovesAccuracy(t *testing.T) {
	env, net := trainEnv(t)
	d := env.Splits.Train
	before := Accuracy(net, env.Splits.Test)
	TrainCE(net, nn.NewAdam(0.003), d, stats.NewRNG(2), 10, 32)
	after := Accuracy(net, env.Splits.Test)
	if after <= before+0.2 {
		t.Errorf("TrainCE accuracy %v -> %v, want substantial improvement", before, after)
	}
}

func TestTrainCEProxStaysNearReference(t *testing.T) {
	env, netA := trainEnv(t)
	_, netB := trainEnv(t)
	ref := nn.FlattenParams(netA.Params())
	refCopy := make([]float64, len(ref))
	copy(refCopy, ref)

	d := env.ClientData[0]
	// netA trains free; netB trains with a strong proximal pull to refCopy.
	TrainCE(netA, nn.NewAdam(0.003), d, stats.NewRNG(3), 5, 32)
	TrainCEProx(netB, nn.NewAdam(0.003), d, stats.NewRNG(3), 5, 32, 50, refCopy)

	distance := func(params []*nn.Param) float64 {
		flat := nn.FlattenParams(params)
		var sum float64
		for i := range flat {
			diff := flat[i] - refCopy[i]
			sum += diff * diff
		}
		return sum
	}
	if distance(netB.Params()) >= distance(netA.Params()) {
		t.Error("proximal term should keep weights closer to the reference")
	}
}

func TestTrainCEWithProtoPullsFeatures(t *testing.T) {
	env, net := trainEnv(t)
	d := env.ClientData[0]

	// Global prototypes: far-away constant targets so the pull is visible.
	protos := proto.NewSet(env.Classes(), models.FeatureWidth)
	for class := 0; class < env.Classes(); class++ {
		vec := make([]float64, models.FeatureWidth)
		for j := range vec {
			vec[j] = 5
		}
		protos.Vectors[class] = vec
		protos.Counts[class] = 1
	}

	meanFeatureDistance := func() float64 {
		feats := net.Features(d.X)
		var sum float64
		for i := 0; i < feats.Rows; i++ {
			sum += protos.Distance(feats.Row(i), d.Labels[i])
		}
		return sum / float64(feats.Rows)
	}
	before := meanFeatureDistance()
	TrainCEWithProto(net, nn.NewAdam(0.003), d, stats.NewRNG(4), 5, 32, protos, 10)
	after := meanFeatureDistance()
	if after >= before {
		t.Errorf("prototype loss should shrink feature distance: %v -> %v", before, after)
	}
}

func TestTrainCEWithProtoNilFallsBack(t *testing.T) {
	env, net := trainEnv(t)
	before := Accuracy(net, env.Splits.Test)
	TrainCEWithProto(net, nn.NewAdam(0.003), env.Splits.Train, stats.NewRNG(5), 5, 32, nil, 0.5)
	if Accuracy(net, env.Splits.Test) <= before {
		t.Error("nil prototypes must fall back to plain CE training")
	}
}

func TestTrainDistillMatchesTeacher(t *testing.T) {
	env, student := trainEnv(t)
	_, teacher := trainEnv(t)
	TrainCE(teacher, nn.NewAdam(0.003), env.Splits.Train, stats.NewRNG(6), 8, 32)

	x := env.Splits.Public.X
	teacherLogits := teacher.Logits(x)
	pseudo := make([]int, x.Rows)
	for i := range pseudo {
		pseudo[i] = stats.Argmax(teacherLogits.Row(i))
	}

	agreement := func() float64 {
		return stats.Accuracy(student.Predict(x), pseudo)
	}
	before := agreement()
	TrainDistill(student, nn.NewAdam(0.003), x, teacherLogits, pseudo, stats.NewRNG(7), 15, 32, 0.5, 1)
	after := agreement()
	if after <= before || after < 0.7 {
		t.Errorf("distillation agreement %v -> %v, want strong convergence to teacher", before, after)
	}
}

func TestTrainServerPKDLearns(t *testing.T) {
	env, server := trainEnv(t)
	_, teacher := trainEnv(t)
	TrainCE(teacher, nn.NewAdam(0.003), env.Splits.Train, stats.NewRNG(8), 8, 32)

	x := env.Splits.Public.X
	teacherLogits := teacher.Logits(x)
	pseudo := make([]int, x.Rows)
	for i := range pseudo {
		pseudo[i] = stats.Argmax(teacherLogits.Row(i))
	}
	protos := proto.Compute(func(m *tensor.Matrix) *tensor.Matrix { return teacher.Features(m) }, env.Splits.Train)

	before := Accuracy(server, env.Splits.Test)
	TrainServerPKD(server, nn.NewAdam(0.003), x, teacherLogits, pseudo, protos, stats.NewRNG(9), 15, 32, 0.5, 1)
	after := Accuracy(server, env.Splits.Test)
	if after <= before {
		t.Errorf("server PKD training accuracy %v -> %v", before, after)
	}
}

func TestMeanClientAccuracy(t *testing.T) {
	env, netA := trainEnv(t)
	_, netB := trainEnv(t)
	got := MeanClientAccuracy([]*nn.Network{netA, netB}, env.LocalTests)
	if got < 0 || got > 1 {
		t.Errorf("MeanClientAccuracy = %v", got)
	}
	if MeanClientAccuracy(nil, nil) != 0 {
		t.Error("no clients must yield 0")
	}
}

// TestMeanClientAccuracyMatchesSerialLoop: the fanned-out evaluation returns
// the bits of the serial loop it replaced, whatever the fan-out width, and a
// client whose evaluation panics takes the caller down with it.
func TestMeanClientAccuracyMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 7} {
		nets := make([]*nn.Network, n)
		tests := make([]*dataset.Dataset, n)
		for c := range nets {
			rng := stats.NewRNG(uint64(100*n + c))
			nets[c] = allocTestNet(rng)
			tests[c] = allocTestData(rng, 9+5*c)
		}
		var want float64
		for c, net := range nets {
			want += Accuracy(net, tests[c])
		}
		want /= float64(n)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			if got := MeanClientAccuracy(nets, tests); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d clients, GOMAXPROCS %d: MeanClientAccuracy = %v, serial loop %v", n, procs, got, want)
			}
		}
	}

	rng := stats.NewRNG(1)
	nets := []*nn.Network{allocTestNet(rng), allocTestNet(rng)}
	tests := []*dataset.Dataset{allocTestData(rng, 8), {X: tensor.New(3, 5), Labels: make([]int, 3), Classes: 4}} // wrong width
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "client 1 panicked") {
			t.Errorf("a panicking client evaluation should be re-raised naming the client, got %v", r)
		}
	}()
	MeanClientAccuracy(nets, tests)
}

func TestAccuracyEmptyDataset(t *testing.T) {
	_, net := trainEnv(t)
	empty := &dataset.Dataset{X: tensor.New(0, 32), Labels: []int{}, Classes: 10}
	if Accuracy(net, empty) != 0 {
		t.Error("accuracy on empty dataset must be 0")
	}
}
