package fedpkd

import (
	"fedpkd/internal/tensor"
)

// SetKernelWorkers sets the tensor-kernel fan-out width. n <= 0 restores
// the default, which tracks GOMAXPROCS. The kernels are deterministic at
// every width: output rows are sharded into disjoint panels and every
// reduction runs in one fixed order, so a simulation produces bit-identical
// results whether it runs with 1 worker or 16 (DESIGN.md §2).
func SetKernelWorkers(n int) { tensor.SetWorkers(n) }
