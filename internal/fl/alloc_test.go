package fl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fedpkd/internal/dataset"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func allocTestNet(rng *stats.RNG) *nn.Network {
	return nn.NewNetwork("alloc-test",
		nn.NewSequential(nn.NewDense(rng, 12, 16), nn.NewReLU()),
		nn.NewSequential(nn.NewDense(rng, 16, 4)),
	)
}

func allocTestData(rng *stats.RNG, n int) *dataset.Dataset {
	d := &dataset.Dataset{X: tensor.Randn(rng, n, 12, 1), Labels: make([]int, n), Classes: 4}
	for i := range d.Labels {
		d.Labels[i] = i % 4
	}
	return d
}

// TestTrainCESteadyStateMatrixAllocs locks down the allocation-free epoch
// loop: after the first epoch warms every persistent buffer, additional
// epochs must perform zero matrix allocations. Measured via the tensor
// package's own allocation counter, so index-slice churn (minibatch
// permutations) doesn't obscure the signal.
func TestTrainCESteadyStateMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	old := debug.SetGCPercent(-1) // keep the scratch arena from being collected mid-run
	defer debug.SetGCPercent(old)

	allocsForEpochs := func(epochs int) int64 {
		rng := stats.NewRNG(99)
		net := allocTestNet(rng)
		d := allocTestData(rng, 64)
		opt := nn.NewAdam(0.05)
		before := tensor.ReadKernelStats().MatrixAllocs
		TrainCE(net, opt, d, rng, epochs, 16)
		return tensor.ReadKernelStats().MatrixAllocs - before
	}

	allocsForEpochs(1) // warm the process-wide scratch arena
	one := allocsForEpochs(1)
	five := allocsForEpochs(5)
	if five != one {
		t.Errorf("TrainCE matrix allocs: 1 epoch = %d, 5 epochs = %d; epochs after the first must allocate nothing", one, five)
	}
}

// TestTrainDistillSteadyStateMatrixAllocs does the same for the public-set
// distillation loop, which exercises GatherRowsInto and both Into-losses.
func TestTrainDistillSteadyStateMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)

	allocsForEpochs := func(epochs int) int64 {
		rng := stats.NewRNG(7)
		net := allocTestNet(rng)
		x := tensor.Randn(rng, 48, 12, 1)
		teacher := tensor.Randn(rng, 48, 4, 1)
		pseudo := make([]int, 48)
		for i := range pseudo {
			pseudo[i] = i % 4
		}
		opt := nn.NewAdam(0.05)
		before := tensor.ReadKernelStats().MatrixAllocs
		TrainDistill(net, opt, x, teacher, pseudo, rng, epochs, 16, 0.5, 2)
		return tensor.ReadKernelStats().MatrixAllocs - before
	}

	allocsForEpochs(1) // warm the process-wide scratch arena
	one := allocsForEpochs(1)
	five := allocsForEpochs(5)
	if five != one {
		t.Errorf("TrainDistill matrix allocs: 1 epoch = %d, 5 epochs = %d; epochs after the first must allocate nothing", one, five)
	}
}

// TestTrainServerPKDSteadyStateMatrixAllocs does the same for the server
// loop with the lane attached (it is free here; at GOMAXPROCS 1 the loop
// runs inline, which the tests above already cover): the lane's ring and
// goroutine are persistent, so it adds no matrix per step or per call.
func TestTrainServerPKDSteadyStateMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)

	allocsForEpochs := func(epochs int) int64 {
		rng := stats.NewRNG(11)
		net := allocTestNet(rng)
		x := tensor.Randn(rng, 48, 12, 1)
		teacher := tensor.Randn(rng, 48, 4, 1)
		pseudo := make([]int, 48)
		protos := proto.NewSet(4, 16)
		for i := range pseudo {
			pseudo[i] = i % 4
			protos.Vectors[i%4] = tensor.Randn(rng, 1, 16, 1).Data
		}
		opt := nn.NewAdam(1e-3)
		if probe := nn.NewTrainer(net, opt); probe.AttachLane() {
			probe.Release()
		} else if runtime.GOMAXPROCS(0) >= 2 {
			t.Fatal("the lane is not free")
		}
		before := tensor.ReadKernelStats().MatrixAllocs
		TrainServerPKD(net, opt, x, teacher, pseudo, protos, rng, epochs, 16, 0.5, 2)
		return tensor.ReadKernelStats().MatrixAllocs - before
	}

	// The arena is a sync.Pool, cached per P. With the lane running on one
	// P, the scheduler may still move this goroutine to the other, where
	// the first Gets of each size miss once; so the comparison gets three
	// tries. An allocation per step or per epoch would fail all three.
	allocsForEpochs(1) // warm the process-wide scratch arena
	var one, five int64
	for try := 0; try < 3; try++ {
		one, five = allocsForEpochs(1), allocsForEpochs(5)
		if five == one {
			return
		}
	}
	t.Errorf("TrainServerPKD matrix allocs: 1 epoch = %d, 5 epochs = %d; epochs after the first must allocate nothing", one, five)
}
