package stats

import (
	"slices"
	"testing"
)

func TestAccuracy(t *testing.T) {
	tests := []struct {
		name   string
		pred   []int
		labels []int
		want   float64
	}{
		{"all correct", []int{1, 2, 3}, []int{1, 2, 3}, 1},
		{"none correct", []int{0, 0, 0}, []int{1, 2, 3}, 0},
		{"half", []int{1, 2, 0, 0}, []int{1, 2, 3, 4}, 0.5},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Accuracy(tt.pred, tt.labels); got != tt.want {
				t.Errorf("Accuracy = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Accuracy with mismatched lengths should panic")
		}
	}()
	Accuracy([]int{1}, []int{1, 2})
}

// TestConfusion: Accuracy counts the diagonal of the (label, prediction)
// pairs, in any order.
func TestConfusion(t *testing.T) {
	pred := []int{0, 1, 1, 2, 2}
	labels := []int{0, 0, 1, 2, 2}
	if got := Accuracy(pred, labels); got != 0.8 {
		t.Errorf("Accuracy = %v, want 0.8", got)
	}
	slices.Reverse(pred)
	slices.Reverse(labels)
	if got := Accuracy(pred, labels); got != 0.8 {
		t.Errorf("Accuracy of the reversed pairs = %v, want 0.8", got)
	}
}

// TestConfusionEmpty: no pairs give accuracy 0, whether the slices are nil
// or empty.
func TestConfusionEmpty(t *testing.T) {
	if Accuracy([]int{}, []int{}) != 0 || Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy must be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{0, 1, 1, 2, 2, 2, 9}, 3)
	want := []int{1, 2, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("Histogram[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(11)
	p := Perm(rng, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b := []int{1, 2, 3, 4, 5, 6, 7, 8}
	Shuffle(NewRNG(5), a)
	Shuffle(NewRNG(5), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle with equal seeds must be deterministic")
		}
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	r1 := Split(42, 1)
	r2 := Split(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if r1.IntN(1000) == r2.IntN(1000) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("Split streams look correlated: %d/100 equal draws", same)
	}
}
