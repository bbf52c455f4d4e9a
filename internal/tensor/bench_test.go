package tensor

import (
	"fmt"
	"testing"

	"fedpkd/internal/stats"
)

// benchShapes are Dense-layer shapes (batch, in, out); a training step issues
// three products per layer: NN x·W, TN xᵀ·dy -> (in x out) and NT dy·Wᵀ ->
// (batch x in). The first four are the shapes the training loops actually
// hit (models.FeatureWidth = 48, batch 32, 32 inputs, 10 classes) and between
// them reach every tail of the simd loops: out = 10 leaves n mod 4 = 2,
// batch 18 leaves TN a k mod 4 = 2 tail and an odd count of row pairs. The
// squares are stress points; 128 and 256 take the packed NT path.
var benchShapes = [][3]int{
	{32, 48, 48}, // hidden layer, full batch
	{32, 32, 48}, // input layer
	{32, 48, 10}, // classifier head
	{18, 48, 48}, // partial last batch
	{32, 32, 32},
	{128, 128, 128},
	{256, 256, 256},
}

// crossoverShapes straddle minParallelOps (the numbers next to it come from
// these): the two inference products of an evaluation pass over 300 rows and
// a longer one, and squares on both sides.
var crossoverShapes = [][3]int{{300, 32, 48}, {300, 48, 48}, {64, 64, 64}, {128, 128, 128}, {160, 160, 160}, {2000, 48, 48}, {192, 192, 192}, {256, 256, 256}}

// benchLayer runs one product of a Dense layer per iteration over every
// shape. op receives the layer's tensors: x (batch x in), w (in x out),
// dy and y (batch x out), gw (in x out), dx (batch x in).
func benchLayer(b *testing.B, shapes [][3]int, op func(x, w, dy, y, gw, dx *Matrix)) {
	for _, s := range shapes {
		batch, in, out := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", batch, in, out), func(b *testing.B) {
			rng := stats.NewRNG(1)
			x := Randn(rng, batch, in, 1)
			w := Randn(rng, in, out, 1)
			dy := Randn(rng, batch, out, 0.1)
			y, gw, dx := New(batch, out), New(in, out), New(batch, in)
			b.SetBytes(int64(batch * in * out * 8)) // MB/s = 8 x Mmul-add/s
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(x, w, dy, y, gw, dx)
			}
		})
	}
}

// benchBothPaths runs benchLayer on the simd inner loops (where the CPU has
// them) and on the pure-Go ones, so one run reports the speedup.
func benchBothPaths(b *testing.B, op func(x, w, dy, y, gw, dx *Matrix)) {
	for _, path := range kernelPaths {
		b.Run(path, func(b *testing.B) {
			useKernelPath(b, path)
			benchLayer(b, benchShapes, op)
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchBothPaths(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulInto(y, x, w) })
}

func BenchmarkMatMulTN(b *testing.B) {
	benchBothPaths(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulTNInto(gw, x, dy) })
}

func BenchmarkMatMulNT(b *testing.B) {
	benchBothPaths(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulNTInto(dx, dy, w) })
}

// BenchmarkMatMulF32 measures the opt-in float32 compute path on the same
// shapes as the float64 kernels.
func BenchmarkMatMulF32(b *testing.B) {
	benchLayer(b, benchShapes, func(x, w, dy, y, gw, dx *Matrix) { MatMulF32Into(y, x, w) })
}

// BenchmarkMatMulNaive measures the retained seed kernel (reference.go) on
// the same shapes, so one run reports blocked-vs-naive speedups.
func BenchmarkMatMulNaive(b *testing.B) {
	benchLayer(b, benchShapes, func(x, w, dy, y, gw, dx *Matrix) { refMatMulInto(y, x, w) })
}

// BenchmarkMatMulSerial pins the pool to one worker: the kernel without
// fan-out, at the shapes around the parallel threshold.
func BenchmarkMatMulSerial(b *testing.B) {
	SetWorkers(1)
	defer SetWorkers(0)
	benchLayer(b, crossoverShapes, func(x, w, dy, y, gw, dx *Matrix) { MatMulInto(y, x, w) })
}

// BenchmarkMatMulParallel fans the same shapes out two ways with the
// threshold dropped, so Serial vs Parallel brackets where minParallelOps
// belongs; on a 1-CPU host it measures the fan-out overhead ceiling.
func BenchmarkMatMulParallel(b *testing.B) {
	forceParallel(b, 2)
	benchLayer(b, crossoverShapes, func(x, w, dy, y, gw, dx *Matrix) { MatMulInto(y, x, w) })
}

// BenchmarkDenseTrainStep measures the allocation-free Dense-equivalent hot
// path at the hidden-layer training shape: forward product, fused
// weight-gradient accumulation, and input-gradient product.
func BenchmarkDenseTrainStep(b *testing.B) {
	benchLayer(b, benchShapes[:1], func(x, w, dy, y, gw, dx *Matrix) {
		MatMulInto(y, x, w)
		MatMulTNAccInto(gw, x, dy)
		MatMulNTInto(dx, dy, w)
	})
}

// BenchmarkRowOps measures every loop of rowops.go on both paths at the
// training shape, a 32-row batch of models.FeatureWidth = 48 columns (Adam
// on a 48x48 weight). MB/s counts the block once: 8 bytes per element.
func BenchmarkRowOps(b *testing.B) {
	for _, path := range kernelPaths {
		b.Run(path, func(b *testing.B) {
			useKernelPath(b, path)
			for _, c := range rowOpCases {
				if c.aliased {
					continue
				}
				rows := 32
				if c.name == "AdamStep" {
					rows = 48
				}
				b.Run(c.name, func(b *testing.B) {
					o := c.build(func(seed uint64, r, cols int) *Matrix { return Randn(stats.NewRNG(seed), r, cols, 1) }, 1, rows, 48)
					b.SetBytes(int64(rows * 48 * 8))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.run(o)
					}
				})
			}
		})
	}
}
