package dataset

import (
	"testing"

	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func tinyDataset(n, dim, classes int) *Dataset {
	rng := stats.NewRNG(1)
	x := tensor.Randn(rng, n, dim, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	return &Dataset{X: x, Labels: labels, Classes: classes}
}

func TestSubsetCopies(t *testing.T) {
	d := tinyDataset(10, 4, 3)
	sub := d.Subset([]int{1, 3, 5})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d, want 3", sub.Len())
	}
	if sub.Labels[0] != d.Labels[1] || sub.Labels[2] != d.Labels[5] {
		t.Error("Subset labels wrong")
	}
	sub.X.Set(0, 0, 999)
	if d.X.At(1, 0) == 999 {
		t.Error("Subset must copy sample data")
	}
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Subset with bad index should panic")
		}
	}()
	tinyDataset(5, 2, 2).Subset([]int{7})
}

func TestWithoutLabels(t *testing.T) {
	d := tinyDataset(6, 2, 3)
	u := d.WithoutLabels()
	if u.Labeled() {
		t.Error("WithoutLabels must strip labels")
	}
	if u.Classes != 3 || u.Len() != 6 {
		t.Error("WithoutLabels must preserve shape and class count")
	}
}

func TestHistogramAndClassIndices(t *testing.T) {
	d := tinyDataset(9, 2, 3)
	h := d.Histogram()
	for class, n := range h {
		if n != 3 {
			t.Errorf("Histogram[%d] = %d, want 3", class, n)
		}
	}
	byClass := d.ClassIndices()
	for class, idx := range byClass {
		for _, i := range idx {
			if d.Labels[i] != class {
				t.Errorf("ClassIndices[%d] contains row with label %d", class, d.Labels[i])
			}
		}
	}
}

func TestBatchesCoverAllIndicesOnce(t *testing.T) {
	rng := stats.NewRNG(2)
	batches := Batches(rng, 23, 5)
	if len(batches) != 5 {
		t.Fatalf("23/5 should give 5 batches, got %d", len(batches))
	}
	if len(batches[4]) != 3 {
		t.Errorf("final batch len = %d, want 3", len(batches[4]))
	}
	seen := make(map[int]bool)
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 23 {
		t.Errorf("batches covered %d indices, want 23", len(seen))
	}
}

func TestBatchesBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Batches with batchSize 0 should panic")
		}
	}()
	Batches(stats.NewRNG(1), 10, 0)
}

// TestGather drives GatherInto from nil workspaces: it sizes the batch,
// copies the rows and labels, and returns nil labels for unlabeled data.
func TestGather(t *testing.T) {
	d := tinyDataset(8, 3, 2)
	x, labels := GatherInto(nil, make([]int, 2), d, []int{2, 4})
	if x.Rows != 2 || x.Cols != 3 {
		t.Fatalf("GatherInto shape %dx%d", x.Rows, x.Cols)
	}
	if x.At(1, 0) != d.X.At(4, 0) || labels[0] != d.Labels[2] || labels[1] != d.Labels[4] {
		t.Error("GatherInto rows or labels wrong")
	}
	u := d.WithoutLabels()
	_, noLabels := GatherInto(nil, nil, u, []int{0})
	if noLabels != nil {
		t.Error("GatherInto on unlabeled data must return nil labels")
	}
}

func TestGatherRows(t *testing.T) {
	m := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := GatherRowsInto(nil, m, []int{2, 0})
	want := tensor.FromRows([][]float64{{5, 6}, {1, 2}})
	if !got.Equal(want, 0) {
		t.Errorf("GatherRowsInto(nil, …) = %v", got.Data)
	}
}
