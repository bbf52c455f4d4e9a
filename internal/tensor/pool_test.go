package tensor

import (
	"runtime"
	"sync"
	"testing"

	"fedpkd/internal/stats"
)

// TestSetWorkers: kernels start no goroutine. A 256³ product, far larger
// than any training or inference product, runs on its caller, so the
// goroutine count does not rise across it.
func TestSetWorkers(t *testing.T) {
	rng := stats.NewRNG(9)
	a, b, out := Randn(rng, 256, 256, 1), Randn(rng, 256, 256, 1), New(256, 256)
	before := runtime.NumGoroutine()
	MatMulInto(out, a, b)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after a 256³ MatMul, %d before it", after, before)
	}
}

// TestParallelForCoversAllRows: a 37-row product of every orientation fully
// overwrites a dirty destination.
func TestParallelForCoversAllRows(t *testing.T) {
	const rows, k, n = 37, 19, 23
	for _, kc := range kernelCases {
		a, b := kc.operands(eqOperands, 37, rows, k, n)
		want := dirty(rows, n)
		kc.ref(want, a, b)
		got := dirty(rows, n)
		kc.into(got, a, b)
		if !got.Equal(want, 1e-12) {
			t.Errorf("%s: the %d-row product left stale elements\n got  %v\n want %v", kc.name, rows, got.Data, want.Data)
		}
	}
}

// TestParallelKernelsUnderConcurrentCallers mimics fl.ForEachClient: many
// goroutines launching kernels at once must neither deadlock nor cross
// results.
func TestParallelKernelsUnderConcurrentCallers(t *testing.T) {
	rng := stats.NewRNG(11)
	a := Randn(rng, 40, 30, 1)
	b := Randn(rng, 30, 20, 1)
	want := MatMul(a, b)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(40, 20)
			for iter := 0; iter < 25; iter++ {
				MatMulInto(out, a, b)
				if !bitsEqual(out, want) {
					errs <- "concurrent MatMul diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestScratchArenaRoundTrip(t *testing.T) {
	m := GetScratch(4, 5)
	if m.Rows != 4 || m.Cols != 5 || len(m.Data) != 20 {
		t.Fatalf("GetScratch shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Fill(3)
	Release(m)
	// The next same-class Get should be served from the pool. sync.Pool
	// gives no hard guarantee, but with no GC between Put and Get this holds
	// in practice; assert on shape correctness either way and on reuse when
	// the pool cooperates.
	n := GetScratch(3, 7) // 21 elements -> same power-of-two class as 20
	if n.Rows != 3 || n.Cols != 7 || len(n.Data) != 21 {
		t.Fatalf("GetScratch reuse shape = %dx%d len %d", n.Rows, n.Cols, len(n.Data))
	}
	Release(n)

	z := GetScratch(0, 9)
	if z.Rows != 0 || z.Cols != 9 || len(z.Data) != 0 {
		t.Errorf("GetScratch zero shape = %dx%d len %d", z.Rows, z.Cols, len(z.Data))
	}
	Release(z)
	Release(nil) // must be a no-op

	// Foreign matrices (non-power-of-two capacity) are dropped, not pooled.
	Release(New(3, 3))
}

// TestEnsureScratch: a workspace its shape fits is resliced in place; one
// too small goes back to the arena and a scratch matrix of a class that
// holds the new shape replaces it; a nil workspace starts from the arena.
func TestEnsureScratch(t *testing.T) {
	m := EnsureScratch(nil, 4, 5)
	if m.Rows != 4 || m.Cols != 5 || len(m.Data) != 20 || cap(m.Data) != 32 {
		t.Fatalf("EnsureScratch(nil, 4, 5) = %dx%d len %d cap %d, want a 32-float scratch matrix", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	data := &m.Data[:1][0]
	if r := EnsureScratch(m, 6, 5); r != m || &r.Data[0] != data || len(r.Data) != 30 {
		t.Fatalf("EnsureScratch within capacity moved the workspace or mis-sized it (len %d)", len(r.Data))
	}
	grown := EnsureScratch(m, 9, 5)
	if grown.Rows != 9 || grown.Cols != 5 || len(grown.Data) != 45 || cap(grown.Data) != 64 {
		t.Fatalf("EnsureScratch past capacity = %dx%d len %d cap %d, want a 64-float scratch matrix", grown.Rows, grown.Cols, len(grown.Data), cap(grown.Data))
	}
	if m.Rows != 0 || len(m.Data) != 0 {
		t.Errorf("the outgrown workspace was not returned to the arena (%dx%d len %d)", m.Rows, m.Cols, len(m.Data))
	}
	Release(grown)
}

// TestScratchArenaConcurrent hammers the arena from several goroutines under
// the race detector.
func TestScratchArenaConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := GetScratch(1+g, 1+i%13)
				m.Fill(float64(g))
				for _, v := range m.Data {
					if v != float64(g) {
						t.Error("scratch matrix torn between goroutines")
						return
					}
				}
				Release(m)
			}
		}(g)
	}
	wg.Wait()
}
