package proto

import (
	"math"
	"testing"
	"testing/quick"

	"fedpkd/internal/dataset"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// identityFeatures uses the raw inputs as features, making expected
// prototypes easy to compute by hand. It hands them over in blocks of two
// rows, so Compute must place each block by its offset.
func identityFeatures(x *tensor.Matrix, visit func(lo int, feats *tensor.Matrix)) {
	for lo := 0; ; lo += 2 {
		hi := min(lo+2, x.Rows)
		visit(lo, tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols]))
		if hi == x.Rows {
			return
		}
	}
}

func TestComputeIsClassMean(t *testing.T) {
	d := &dataset.Dataset{
		X:       tensor.FromRows([][]float64{{1, 0}, {3, 0}, {0, 2}, {0, 4}, {0, 6}}),
		Labels:  []int{0, 0, 1, 1, 1},
		Classes: 3,
	}
	set := Compute(identityFeatures, d)
	if set.Len() != 2 {
		t.Fatalf("set has %d classes, want 2", set.Len())
	}
	want0 := []float64{2, 0}
	want1 := []float64{0, 4}
	for j := range want0 {
		if set.Vectors[0][j] != want0[j] {
			t.Errorf("prototype 0 = %v, want %v", set.Vectors[0], want0)
		}
		if set.Vectors[1][j] != want1[j] {
			t.Errorf("prototype 1 = %v, want %v", set.Vectors[1], want1)
		}
	}
	if set.Counts[0] != 2 || set.Counts[1] != 3 {
		t.Errorf("counts = %v", set.Counts)
	}
	if set.Has(2) {
		t.Error("class 2 has no samples, must have no prototype")
	}
}

func TestComputeUnlabeledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compute on unlabeled data should panic")
		}
	}()
	d := &dataset.Dataset{X: tensor.New(2, 2), Classes: 2}
	Compute(identityFeatures, d)
}

func TestAggregateWeightedMean(t *testing.T) {
	// Client A: class 0 prototype (0,0) from 1 sample.
	// Client B: class 0 prototype (3,3) from 3 samples.
	// Weighted mean: (2.25, 2.25).
	a := NewSet(2, 2)
	a.Vectors[0] = []float64{0, 0}
	a.Counts[0] = 1
	b := NewSet(2, 2)
	b.Vectors[0] = []float64{3, 3}
	b.Counts[0] = 3
	b.Vectors[1] = []float64{9, 9}
	b.Counts[1] = 5

	g, err := Aggregate([]*Set{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if g.Vectors[0][0] != 2.25 || g.Vectors[0][1] != 2.25 {
		t.Errorf("global prototype 0 = %v, want (2.25, 2.25)", g.Vectors[0])
	}
	// Class 1 exists only on client B: unchanged.
	if g.Vectors[1][0] != 9 {
		t.Errorf("global prototype 1 = %v, want (9,9)", g.Vectors[1])
	}
	if g.Counts[0] != 4 || g.Counts[1] != 5 {
		t.Errorf("global counts = %v", g.Counts)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Error("Aggregate of nothing should error")
	}
	a := NewSet(2, 2)
	b := NewSet(2, 3)
	if _, err := Aggregate([]*Set{a, b}); err == nil {
		t.Error("Aggregate with mismatched dims should error")
	}
}

func TestDistance(t *testing.T) {
	s := NewSet(2, 2)
	s.Vectors[0] = []float64{0, 0}
	s.Counts[0] = 1
	if got := s.Distance([]float64{3, 4}, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := s.Distance([]float64{1, 1}, 1); !math.IsInf(got, 1) {
		t.Errorf("Distance to missing prototype = %v, want +Inf", got)
	}
}

func TestTargetMatrix(t *testing.T) {
	s := NewSet(3, 2)
	s.Vectors[0] = []float64{1, 1}
	s.Counts[0] = 1
	fallback := tensor.FromRows([][]float64{{7, 7}, {8, 8}})
	got := s.TargetMatrixInto(nil, []int{0, 2}, fallback)
	if got.At(0, 0) != 1 || got.At(0, 1) != 1 {
		t.Errorf("row 0 = %v, want prototype (1,1)", got.Row(0))
	}
	// Class 2 has no prototype: fallback row means zero MSE contribution.
	if got.At(1, 0) != 8 || got.At(1, 1) != 8 {
		t.Errorf("row 1 = %v, want fallback (8,8)", got.Row(1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewSet(2, 2)
	s.Vectors[0] = []float64{1, 2}
	s.Counts[0] = 4
	c := s.Clone()
	c.Vectors[0][0] = 99
	if s.Vectors[0][0] != 1 {
		t.Error("Clone must not share vectors")
	}
}

// Property: aggregating a single set returns the same prototypes.
func TestAggregateIdentityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		s := NewSet(5, 3)
		for class := 0; class < 5; class++ {
			if rng.Float64() < 0.5 {
				continue
			}
			vec := make([]float64, 3)
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			s.Vectors[class] = vec
			s.Counts[class] = 1 + rng.IntN(10)
		}
		g, err := Aggregate([]*Set{s})
		if err != nil {
			return false
		}
		if g.Len() != s.Len() {
			return false
		}
		for class, vec := range s.Vectors {
			for j := range vec {
				if math.Abs(g.Vectors[class][j]-vec[j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: aggregation is permutation-invariant in the client order.
func TestAggregatePermutationInvariant(t *testing.T) {
	rng := stats.NewRNG(11)
	mk := func() *Set {
		s := NewSet(4, 2)
		for class := 0; class < 4; class++ {
			if rng.Float64() < 0.4 {
				continue
			}
			s.Vectors[class] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			s.Counts[class] = 1 + rng.IntN(5)
		}
		return s
	}
	a, b, c := mk(), mk(), mk()
	g1, err1 := Aggregate([]*Set{a, b, c})
	g2, err2 := Aggregate([]*Set{c, a, b})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for class := 0; class < 4; class++ {
		if g1.Has(class) != g2.Has(class) {
			t.Fatalf("presence differs for class %d", class)
		}
		if !g1.Has(class) {
			continue
		}
		for j := range g1.Vectors[class] {
			if math.Abs(g1.Vectors[class][j]-g2.Vectors[class][j]) > 1e-12 {
				t.Fatalf("class %d differs across orders", class)
			}
		}
	}
}
