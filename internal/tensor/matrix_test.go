package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedpkd/internal/stats"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(1, 1) != 4 || m.At(2, 0) != 5 {
		t.Fatalf("At wrong: %v %v", m.At(1, 1), m.At(2, 0))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.Row(2)
	row[0] = 100 // Row is a view.
	if m.At(2, 0) != 100 {
		t.Fatal("Row must be a view into the matrix")
	}
	copy(m.Row(0), []float64{7, 8}) // Row is a writable view too.
	if m.At(0, 0) != 7 || m.At(0, 1) != 8 {
		t.Fatal("writing through Row failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromRows with ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})

	sum := a.Clone().Add(b)
	if !sum.Equal(FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Error("Add wrong")
	}
	diff := b.Clone().Sub(a)
	if !diff.Equal(FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Error("Sub wrong")
	}
	scaled := a.Clone().Scale(2)
	if !scaled.Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Error("Scale wrong")
	}
	masked := b.Clone()
	ReLUGradInto(masked.Data, masked.Data, []float64{1, 0, 0.5, math.Copysign(0, -1)})
	if !masked.Equal(FromRows([][]float64{{10, 0}, {30, 40}}), 0) {
		t.Errorf("in-place ReLUGradInto wrong: %v", masked.Data)
	}
	axpy := a.Clone().AddScaled(0.5, b)
	if !axpy.Equal(FromRows([][]float64{{6, 12}, {18, 24}}), 0) {
		t.Error("AddScaled wrong")
	}
	applied := a.Clone().Apply(func(x float64) float64 { return -x })
	if !applied.Equal(FromRows([][]float64{{-1, -2}, {-3, -4}}), 0) {
		t.Error("Apply wrong")
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched shapes should panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	m.AddRowVector([]float64{10, 20, 30})
	want := FromRows([][]float64{{11, 22, 33}, {14, 25, 36}})
	if !m.Equal(want, 0) {
		t.Errorf("AddRowVector got %v", m.Data)
	}
	sums := make([]float64, m.Cols)
	AddColSums(sums, m)
	wantSums := []float64{25, 47, 69}
	for j := range wantSums {
		if sums[j] != wantSums[j] {
			t.Errorf("AddColSums[%d] = %v, want %v", j, sums[j], wantSums[j])
		}
	}
}

func TestNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if got := m.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestRandnStats(t *testing.T) {
	rng := stats.NewRNG(1)
	m := Randn(rng, 100, 100, 0.5)
	var sum, sq float64
	for _, v := range m.Data {
		sum += v
		sq += v * v
	}
	n := float64(len(m.Data))
	mean, variance := sum/n, sq/n
	if math.Abs(mean) > 0.02 {
		t.Errorf("Randn mean = %v, want ~0", mean)
	}
	if math.Abs(variance-0.25) > 0.02 {
		t.Errorf("Randn variance = %v, want ~0.25", variance)
	}
}

func TestZeroAndFill(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Fill(7)
	if m.At(0, 0) != 7 || m.At(0, 1) != 7 {
		t.Error("Fill failed")
	}
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Error("Zero failed")
	}
}

// Property: (A + B) - B == A for random matrices.
func TestAddSubRoundtripProperty(t *testing.T) {
	rng := stats.NewRNG(13)
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		rows, cols := 1+r.IntN(6), 1+r.IntN(6)
		a := Randn(rng, rows, cols, 1)
		b := Randn(rng, rows, cols, 1)
		got := a.Clone().Add(b).Sub(b)
		return got.Equal(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
