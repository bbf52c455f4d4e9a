package tensor

import "sync/atomic"

// Process-wide kernel and allocator counters, exposed so the observability
// layer (internal/obs) can attribute compute and pool behaviour to rounds
// without this package importing anything above it. All counters are
// monotonically increasing; consumers take deltas.
var (
	statSerialCalls   atomic.Int64
	statParallelCalls atomic.Int64
	statOps           atomic.Int64
	statMatrixAllocs  atomic.Int64
	statScratchGets   atomic.Int64
	statScratchMisses atomic.Int64
	statScratchPuts   atomic.Int64
)

// KernelStats is a snapshot of the compute-layer counters.
type KernelStats struct {
	// SerialCalls counts kernel launches that ran on the calling goroutine
	// (work below the parallel threshold, or Workers() == 1).
	SerialCalls int64 `json:"serial_calls"`
	// ParallelCalls counts kernel launches sharded across the worker pool.
	ParallelCalls int64 `json:"parallel_calls"`
	// Ops counts multiply-add operations issued by the matmul kernels.
	Ops int64 `json:"ops"`
	// MatrixAllocs counts fresh matrix allocations (tensor.New and friends).
	// The allocation-regression tests assert this stays flat across
	// steady-state training batches.
	MatrixAllocs int64 `json:"matrix_allocs"`
	// ScratchGets / ScratchMisses / ScratchPuts count scratch-arena traffic;
	// a miss is a Get that had to allocate because the pool was empty.
	ScratchGets   int64 `json:"scratch_gets"`
	ScratchMisses int64 `json:"scratch_misses"`
	ScratchPuts   int64 `json:"scratch_puts"`
	// Path names the inner loops the matmul kernels run, chosen once at
	// start-up from what the CPU supports: "avx2" or "generic" (pure Go). The
	// two produce identical bits; only timings depend on it.
	Path string `json:"path"`
}

// ReadKernelStats returns a snapshot of the process-wide kernel counters.
func ReadKernelStats() KernelStats {
	path := "generic"
	if simd != nil {
		path = simd.name
	}
	return KernelStats{
		SerialCalls:   statSerialCalls.Load(),
		ParallelCalls: statParallelCalls.Load(),
		Ops:           statOps.Load(),
		MatrixAllocs:  statMatrixAllocs.Load(),
		ScratchGets:   statScratchGets.Load(),
		ScratchMisses: statScratchMisses.Load(),
		ScratchPuts:   statScratchPuts.Load(),
		Path:          path,
	}
}
