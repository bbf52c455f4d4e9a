package fedpkd

import (
	"fedpkd/internal/tensor"
)

// Compute-layer controls, re-exported from internal/tensor so downstream
// users can size the kernel worker pool and read its counters without
// importing internal packages.
//
// The kernels are deterministic at every width: output rows are sharded
// into disjoint panels and every reduction runs in one fixed order, so a
// simulation produces bit-identical results whether it runs with 1 worker
// or 16 (see DESIGN.md §6, "Kernel architecture").

// KernelStats is a snapshot of the tensor compute layer's process-wide
// counters.
type KernelStats = tensor.KernelStats

// SetKernelWorkers sets the tensor-kernel fan-out width. n <= 0 restores
// the default, which tracks GOMAXPROCS.
func SetKernelWorkers(n int) { tensor.SetWorkers(n) }

// ReadKernelStats returns a snapshot of the compute-layer counters.
func ReadKernelStats() KernelStats { return tensor.ReadKernelStats() }
