package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernel worker pool. Matrix products shard their output rows into
// disjoint panels and fan the panels out across a persistent pool of
// goroutines. Because the panels partition the output — no two workers ever
// accumulate into the same element — and every kernel visits the reduction
// dimension k in one fixed ascending order, the result is bit-identical at
// every worker count, including 1. That invariant is what lets the
// fixed-seed determinism tests of internal/core and internal/baselines keep
// passing with parallel kernels enabled (see equivalence_test.go).

// span is one unit of pool work: run fn over output rows [lo, hi).
type span struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

var (
	poolMu      sync.Mutex
	poolTasks   chan span
	poolSpawned int

	// workerWidth is the configured shard width; <= 0 means "track
	// GOMAXPROCS".
	workerWidth atomic.Int32
)

// minParallelOps is the work threshold (in multiply-adds) below which a
// kernel runs serially on the calling goroutine: small matrices finish
// faster than the fan-out handshake. Fan-out moves no result bit (parallel ==
// serial), so only speed depends on it. A var, not a const, so tests can
// force the parallel path for tiny shapes.
//
// Re-derived against the AVX2 inner loops (1<<17 dated from kernels that took
// 3x longer per panel) on the 2-core reference VM, BenchmarkMatMulSerial vs
// BenchmarkMatMulParallel (two workers), us per product, range of five runs:
//
//	64^3        0.26M   20-21     -> 24-26     fan-out loses
//	300x32x48   0.46M   53-86     -> 49-58     (serial bimodal; 38-47 other days)
//	300x48x48   0.69M   60-63     -> 68-97     loses: every inference product
//	128^3       2.1M    182-213   -> 171-181   break-even
//	160^3       4.1M    325-389   -> 253-264   wins
//	2000x48x48  4.6M    409-467   -> 313-364   wins
//	256^3       16.8M   1321-1494 -> 833-916   wins
//
// i.e. parallel ~ serial/1.7 + 60 us there, crossing over near 1.7M.
var minParallelOps int64 = 1 << 21

// SetWorkers sets the kernel fan-out width. n <= 0 restores the default,
// which tracks GOMAXPROCS. Safe to call at any time, including while kernels
// are running: in-flight operations finish with the width they started with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerWidth.Store(int32(n))
}

// Workers returns the current kernel fan-out width.
func Workers() int {
	if w := int(workerWidth.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ensureWorkers makes sure at least n pool goroutines exist. Workers are
// persistent: they are spawned once and then block on the shared task
// channel, so steady-state kernel launches never pay goroutine creation.
func ensureWorkers(n int) chan span {
	poolMu.Lock()
	if poolTasks == nil {
		poolTasks = make(chan span, 256)
	}
	for poolSpawned < n {
		poolSpawned++
		go poolWorker(poolTasks)
	}
	ch := poolTasks
	poolMu.Unlock()
	return ch
}

func poolWorker(tasks <-chan span) {
	for s := range tasks {
		s.fn(s.lo, s.hi)
		s.wg.Done()
	}
}

// useParallel reports whether a kernel over rows output rows with ops
// multiply-adds of work should fan out across the pool. Kernel dispatchers
// check it before constructing the panel closure: closures passed to
// parallelFor escape to the heap (they may be sent into the task channel),
// so the serial hot path calls its panel function directly and stays
// allocation-free.
func useParallel(rows int, ops int64) bool {
	return Workers() > 1 && rows >= 2 && ops >= minParallelOps
}

// noteSerial records a kernel call that ran serially on the caller.
func noteSerial(ops int64) {
	statSerialCalls.Add(1)
	statOps.Add(ops)
}

// parallelFor runs fn over the row range [0, rows), sharding it into
// contiguous panels across the worker pool when the estimated work (ops
// multiply-adds) justifies the fan-out. The caller's goroutine always
// executes the first panel itself, so progress is guaranteed even when the
// pool is saturated by other callers (e.g. concurrent clients in
// fl.ForEachClient).
func parallelFor(rows int, ops int64, fn func(lo, hi int)) {
	w := Workers()
	if w <= 1 || rows < 2 || ops < minParallelOps {
		if rows > 0 {
			fn(0, rows)
		}
		statSerialCalls.Add(1)
		statOps.Add(ops)
		return
	}
	shards := w
	if shards > rows {
		shards = rows
	}
	chunk := (rows + shards - 1) / shards
	tasks := ensureWorkers(shards - 1)
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		tasks <- span{lo: lo, hi: hi, fn: fn, wg: &wg}
	}
	fn(0, chunk)
	wg.Wait()
	statParallelCalls.Add(1)
	statOps.Add(ops)
}
