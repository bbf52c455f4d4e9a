package tensor

import (
	"runtime"
	"sync"
	"testing"

	"fedpkd/internal/stats"
)

// setWorkers forces the kernel fan-out width for a test. n <= 0 restores
// the default, which tracks GOMAXPROCS. Safe to call while kernels run:
// in-flight operations finish with the width they started with.
func setWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerWidth.Store(int32(n))
}

// TestSetWorkers: a forced width is what Workers reports, and 0 or a
// negative width falls back to GOMAXPROCS.
func TestSetWorkers(t *testing.T) {
	defer setWorkers(0)
	setWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after setWorkers(3)", Workers())
	}
	setWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d with default width, want GOMAXPROCS %d", got, want)
	}
	setWorkers(-5) // negative resets to the default, same as 0
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d after setWorkers(-5), want GOMAXPROCS %d", got, want)
	}
}

// TestParallelForCoversAllRows drives the pool directly: every row must be
// visited exactly once regardless of width.
func TestParallelForCoversAllRows(t *testing.T) {
	defer func() { setWorkers(0) }()
	old := minParallelOps
	minParallelOps = 0
	defer func() { minParallelOps = old }()

	for _, w := range []int{1, 2, 5, 16} {
		setWorkers(w)
		const rows = 37
		var mu sync.Mutex
		seen := make([]int, rows)
		parallelFor(rows, 1<<20, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("w=%d: row %d visited %d times", w, i, n)
			}
		}
	}
}

// TestParallelKernelsUnderConcurrentCallers mimics fl.ForEachClient: many
// goroutines launching pooled kernels at once must neither deadlock nor
// cross results.
func TestParallelKernelsUnderConcurrentCallers(t *testing.T) {
	old := minParallelOps
	minParallelOps = 0
	setWorkers(4)
	defer func() {
		minParallelOps = old
		setWorkers(0)
	}()

	rng := stats.NewRNG(11)
	a := Randn(rng, 40, 30, 1)
	b := Randn(rng, 30, 20, 1)
	setWorkers(1)
	want := MatMul(a, b)
	setWorkers(4)

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
					errs <- "concurrent pooled MatMul diverged"
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
