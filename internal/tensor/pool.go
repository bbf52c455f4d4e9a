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

	// workerWidth is a shard width a test forced (setWorkers); 0 means
	// "track GOMAXPROCS", which is all production code ever sees.
	workerWidth atomic.Int32
)

// minParallelOps is the work threshold (in multiply-adds) below which a
// kernel runs serially on the calling goroutine: small matrices finish
// faster than the fan-out handshake. Fan-out moves no result bit (parallel ==
// serial), so only speed depends on it. A var, not a const, so tests can
// force the parallel path for tiny shapes.
//
// Re-derived against the AVX-512 inner loops on the 2-vCPU Xeon VM (the AVX2
// loops, 1.3-1.5x slower per product, had put it at 1<<21),
// BenchmarkMatMulSerial vs BenchmarkMatMulParallel (two workers), us per
// product, range of five runs:
//
//	64^3        0.26M   14-28    -> 17-24    fan-out loses
//	300x32x48   0.46M   31-54    -> 33-36    (serial bimodal)
//	300x48x48   0.69M   45-80    -> 59-86    loses: every inference product
//	128^3       2.1M    123-147  -> 122-141  break-even
//	1200x48x48  2.8M    177-207  -> 168-195  break-even
//	1500x48x48  3.5M    221-265  -> 210-257  break-even
//	160^3       4.1M    207-299  -> 194-244  wins
//	2000x48x48  4.6M    313-398  -> 257-307  wins
//	192^3       7.1M    442-542  -> 279-403  wins
//	256^3       16.8M   841-1044 -> 593-822  wins
//
// Seven alternating runs of the three break-even shapes gave medians of
// 114/123, 182/185 and 234/244 us, so the crossover now lies between 2.1M and
// 4.1M; 3<<20 sits inside it.
var minParallelOps int64 = 3 << 20

// Workers returns the current kernel fan-out width: GOMAXPROCS, unless a
// test forced another.
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
