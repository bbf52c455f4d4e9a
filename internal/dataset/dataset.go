// Package dataset provides the data substrate: synthetic CIFAR-stand-in
// generators (see DESIGN.md §1 for the substitution rationale), the non-IID
// partitioners the paper evaluates with (Dirichlet and shards), per-client
// local test sets, and minibatching utilities.
package dataset

import (
	"fmt"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Dataset is a labeled (or, for public sets, unlabeled) collection of
// fixed-dimension samples.
type Dataset struct {
	// X holds one sample per row.
	X *tensor.Matrix
	// Labels has one entry per row of X, or is nil for unlabeled data.
	Labels []int
	// Classes is the number of classes in the task (set even when Labels is
	// nil).
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Dim returns the input dimension.
func (d *Dataset) Dim() int { return d.X.Cols }

// Labeled reports whether the dataset carries labels.
func (d *Dataset) Labeled() bool { return d.Labels != nil }

// Subset returns a new dataset containing the given rows (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	x := tensor.New(len(idx), d.X.Cols)
	var labels []int
	if d.Labels != nil {
		labels = make([]int, len(idx))
	}
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			panic(fmt.Sprintf("dataset: Subset index %d out of range [0,%d)", j, d.Len()))
		}
		copy(x.Row(i), d.X.Row(j))
		if labels != nil {
			labels[i] = d.Labels[j]
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: d.Classes}
}

// WithoutLabels returns a view of the dataset with labels stripped (the
// samples are shared, not copied). Used to build the unlabeled public set.
func (d *Dataset) WithoutLabels() *Dataset {
	return &Dataset{X: d.X, Labels: nil, Classes: d.Classes}
}

// Histogram returns per-class sample counts. It panics on unlabeled data.
func (d *Dataset) Histogram() []int {
	if d.Labels == nil {
		panic("dataset: Histogram on unlabeled dataset")
	}
	return stats.Histogram(d.Labels, d.Classes)
}

// ClassIndices returns, for each class, the row indices holding that class.
func (d *Dataset) ClassIndices() [][]int {
	if d.Labels == nil {
		panic("dataset: ClassIndices on unlabeled dataset")
	}
	byClass := make([][]int, d.Classes)
	for i, y := range d.Labels {
		byClass[y] = append(byClass[y], i)
	}
	return byClass
}

// Batches returns shuffled minibatch index slices covering [0, n). The final
// batch may be short. batchSize must be positive.
func Batches(rng *stats.RNG, n, batchSize int) [][]int {
	if batchSize <= 0 {
		panic(fmt.Sprintf("dataset: batchSize must be positive, got %d", batchSize))
	}
	perm := stats.Perm(rng, n)
	var batches [][]int
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		batches = append(batches, perm[start:end])
	}
	return batches
}

// GatherInto copies the given rows of d into dst, reusing its backing
// storage when it is large enough (dst may be nil). Labels land in dstLabels
// when d is labeled; dstLabels must then have len(idx) capacity. It returns
// the resized batch matrix and label slice. Training loops call this once
// per minibatch with persistent workspaces, so epochs allocate nothing.
func GatherInto(dst *tensor.Matrix, dstLabels []int, d *Dataset, idx []int) (*tensor.Matrix, []int) {
	dst = tensor.Ensure(dst, len(idx), d.X.Cols)
	var labels []int
	if d.Labels != nil {
		labels = dstLabels[:len(idx)]
	}
	for i, j := range idx {
		copy(dst.Row(i), d.X.Row(j))
		if labels != nil {
			labels[i] = d.Labels[j]
		}
	}
	return dst, labels
}

// GatherRowsInto copies the given rows of m into dst (reused when large
// enough, may be nil) and returns the resized batch matrix.
func GatherRowsInto(dst, m *tensor.Matrix, idx []int) *tensor.Matrix {
	dst = tensor.Ensure(dst, len(idx), m.Cols)
	for i, j := range idx {
		copy(dst.Row(i), m.Row(j))
	}
	return dst
}
