package tensor

import (
	"fmt"
	"testing"

	"fedpkd/internal/stats"
)

// benchSizes spans the shapes the training loops actually hit: batch-sized
// activations (32), layer-sized weights (128), and a larger stress point.
var benchSizes = []int{32, 128, 256}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

func BenchmarkMatMulTN(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTNInto(out, x, y)
			}
		})
	}
}

func BenchmarkMatMulNT(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulNTInto(out, x, y)
			}
		})
	}
}

// BenchmarkMatMulF32 measures the opt-in float32 compute path on the same
// shapes as the float64 kernels.
func BenchmarkMatMulF32(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulF32Into(out, x, y)
			}
		})
	}
}

// BenchmarkMatMulNaive measures the retained seed kernel (reference.go) on
// the same shapes, so one run reports blocked-vs-naive speedups.
func BenchmarkMatMulNaive(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refMatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkMatMulSerial pins the pool to one worker: the blocked kernel
// without fan-out, isolating the cache-tiling + unrolling win.
func BenchmarkMatMulSerial(b *testing.B) {
	SetWorkers(1)
	defer SetWorkers(0)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkMatMulParallel forces a 4-way fan-out regardless of GOMAXPROCS;
// on a multi-core host this is the full pooled path, on a 1-CPU host it
// measures the fan-out overhead ceiling.
func BenchmarkMatMulParallel(b *testing.B) {
	SetWorkers(4)
	defer SetWorkers(0)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, n, n, 1)
			y := Randn(rng, n, n, 1)
			out := New(n, n)
			b.SetBytes(int64(n * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkDenseTrainStep measures the allocation-free Dense-equivalent hot
// path at training shapes: forward product, fused weight-gradient
// accumulation, and input-gradient product.
func BenchmarkDenseTrainStep(b *testing.B) {
	const batch, in, out = 32, 128, 128
	rng := stats.NewRNG(1)
	x := Randn(rng, batch, in, 1)
	w := Randn(rng, in, out, 1)
	dout := Randn(rng, batch, out, 0.1)
	y := New(batch, out)
	gw := New(in, out)
	dx := New(batch, in)
	b.SetBytes(int64(3 * batch * in * out * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(y, x, w)
		MatMulTNAccInto(gw, x, dout)
		MatMulNTInto(dx, dout, w)
	}
}
