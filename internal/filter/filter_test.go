package filter

import (
	"sort"
	"testing"
	"testing/quick"

	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// protoAtOrigin builds a prototype set with class 0 at the origin and class
// 1 at (10, 10) in a 2-dim feature space.
func protoAtOrigin() *proto.Set {
	s := proto.NewSet(3, 2)
	s.Vectors[0] = []float64{0, 0}
	s.Counts[0] = 1
	s.Vectors[1] = []float64{10, 10}
	s.Counts[1] = 1
	return s
}

func TestSelectKeepsClosest(t *testing.T) {
	features := tensor.FromRows([][]float64{
		{0.1, 0}, // class 0, dist 0.1
		{5, 5},   // class 0, dist ~7.07 (should be dropped at 50%)
		{0.2, 0}, // class 0, dist 0.2
		{1, 0},   // class 0, dist 1 (boundary: ceil(0.5*4)=2 -> dropped)
		{10, 10}, // class 1, dist 0
		{20, 20}, // class 1, far (dropped at 50%: ceil(0.5*2)=1)
	})
	pseudo := []int{0, 0, 0, 0, 1, 1}
	got := Select(features, pseudo, protoAtOrigin(), 0.5)
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Select = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Select = %v, want %v", got, want)
		}
	}
}

func TestSelectRatioOneKeepsAll(t *testing.T) {
	features := tensor.FromRows([][]float64{{0, 0}, {1, 1}, {9, 9}})
	pseudo := []int{0, 0, 1}
	got := Select(features, pseudo, protoAtOrigin(), 1)
	if len(got) != 3 {
		t.Errorf("ratio 1 kept %d of 3", len(got))
	}
}

func TestSelectMissingPrototypeKept(t *testing.T) {
	// Class 2 has no prototype: its samples are unranked and kept.
	features := tensor.FromRows([][]float64{{0, 0}, {100, 100}})
	pseudo := []int{2, 2}
	got := Select(features, pseudo, protoAtOrigin(), 0.5)
	if len(got) != 2 {
		t.Errorf("samples of prototype-less class should be kept, got %v", got)
	}
}

func TestSelectBadRatioPanics(t *testing.T) {
	for _, ratio := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ratio %v should panic", ratio)
				}
			}()
			Select(tensor.New(1, 2), []int{0}, protoAtOrigin(), ratio)
		}()
	}
}

func TestSelectRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("row/label mismatch should panic")
		}
	}()
	Select(tensor.New(2, 2), []int{0}, protoAtOrigin(), 0.5)
}

// TestSelectWithStats: with ratio 0.5, Select keeps the half of a class
// nearest its prototype.
func TestSelectWithStats(t *testing.T) {
	features := tensor.FromRows([][]float64{{3, 0}, {1, 0}, {2, 0}, {0, 0}})
	pseudo := []int{0, 0, 0, 0}
	selected := Select(features, pseudo, protoAtOrigin(), 0.5)
	if len(selected) != 2 || selected[0] != 1 || selected[1] != 3 {
		t.Errorf("selected = %v, want [1 3]", selected)
	}
}

// Properties: output is sorted, deduplicated, within range, and per-class
// keep counts honor ceil(ratio*n).
func TestSelectProperties(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 1 + rng.IntN(60)
		features := tensor.Randn(rng, n, 2, 3)
		pseudo := make([]int, n)
		for i := range pseudo {
			pseudo[i] = rng.IntN(3) // class 2 has no prototype
		}
		ratio := 0.3 + rng.Float64()*0.7
		got := Select(features, pseudo, protoAtOrigin(), ratio)

		if !sort.IntsAreSorted(got) {
			return false
		}
		seen := make(map[int]bool)
		counts := make(map[int]int)
		for _, i := range got {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			counts[pseudo[i]]++
		}
		// Per-class counts: classes 0,1 keep ceil(ratio*n_c); class 2 keeps all.
		want := make(map[int]int)
		for _, y := range pseudo {
			want[y]++
		}
		for class, total := range want {
			expect := total
			if class != 2 {
				expect = int(float64(total)*ratio) + boolToInt(float64(int(float64(total)*ratio)) < ratio*float64(total))
			}
			if counts[class] != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
