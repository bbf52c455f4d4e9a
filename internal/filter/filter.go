// Package filter implements the paper's prototype-based data filtering
// (Algorithm 1): for each pseudo-class of the public dataset, keep the
// fraction of samples whose server-model features lie closest to the global
// prototype, discarding the samples whose knowledge is likely low-quality.
package filter

import (
	"fmt"
	"math"
	"sort"

	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// Select implements Algorithm 1. features holds the server model's feature
// vectors for every public sample (row-aligned with pseudoLabels); protos
// are the global prototypes; ratio is the paper's select-ratio θ in (0, 1].
//
// It returns the selected sample indices in ascending order. Within each
// pseudo-class the ceil(θ·n) samples with the smallest prototype distance
// (Eq. 10) survive. Samples whose pseudo-class has no global prototype have
// no quality signal and are kept, matching the conservative reading of
// Algorithm 1 (they are simply never ranked).
func Select(features *tensor.Matrix, pseudoLabels []int, protos *proto.Set, ratio float64) []int {
	if features.Rows != len(pseudoLabels) {
		panic(fmt.Sprintf("filter: %d feature rows for %d pseudo-labels", features.Rows, len(pseudoLabels)))
	}
	if ratio <= 0 || ratio > 1 {
		panic(fmt.Sprintf("filter: ratio must be in (0,1], got %v", ratio))
	}

	byClass := make(map[int][]int)
	var unranked []int
	for i, y := range pseudoLabels {
		if protos.Has(y) {
			byClass[y] = append(byClass[y], i)
		} else {
			unranked = append(unranked, i)
		}
	}

	selected := append([]int(nil), unranked...)
	for class, idx := range byClass {
		dists := make([]float64, len(idx))
		for k, i := range idx {
			dists[k] = protos.Distance(features.Row(i), class)
		}
		order := make([]int, len(idx))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
		keep := int(math.Ceil(ratio * float64(len(idx))))
		for k := 0; k < keep; k++ {
			selected = append(selected, idx[order[k]])
		}
	}
	sort.Ints(selected)
	return selected
}
