// Package proto implements prototype learning: per-class feature-space
// centroids (Eq. 5 of the paper), their aggregation across clients into
// global prototypes (Eq. 8), and the distance queries that the data filter
// (Eq. 10) and the prototype losses (Eqs. 12, 16) are built on.
package proto

import (
	"fmt"
	"math"

	"fedpkd/internal/dataset"
	"fedpkd/internal/tensor"
)

// FeatureFunc maps a batch of samples to their feature representations —
// the paper's R_ω — and hands them to visit block by block, in row order:
// feats holds rows [lo, lo+feats.Rows) of x and is valid only during the
// call. It calls visit at least once, so a zero-row x still reports the
// width. nn.Network.VisitFeatures is one; using a function type keeps this
// package decoupled from the nn engine.
type FeatureFunc func(x *tensor.Matrix, visit func(lo int, feats *tensor.Matrix))

// Set is a collection of per-class prototypes. A class may be absent (a
// client with no samples of that class sends no prototype for it).
type Set struct {
	// Classes is the number of classes in the task.
	Classes int
	// Dim is the feature-space dimension.
	Dim int
	// Vectors maps class -> prototype vector (length Dim).
	Vectors map[int][]float64
	// Counts maps class -> number of samples behind the prototype; used as
	// the aggregation weight in Eq. 8.
	Counts map[int]int
}

// NewSet returns an empty prototype set.
func NewSet(classes, dim int) *Set {
	return &Set{
		Classes: classes,
		Dim:     dim,
		Vectors: make(map[int][]float64),
		Counts:  make(map[int]int),
	}
}

// Has reports whether the set holds a prototype for class.
func (s *Set) Has(class int) bool {
	_, ok := s.Vectors[class]
	return ok
}

// Len returns the number of classes with a prototype.
func (s *Set) Len() int { return len(s.Vectors) }

// Compute derives the local prototypes of a labeled dataset under the given
// feature function (Eq. 5): for each class present, the mean feature vector
// of its samples. Each class sum takes its rows in dataset order as the
// blocks stream past, so no feature matrix is ever built.
func Compute(features FeatureFunc, d *dataset.Dataset) *Set {
	if !d.Labeled() {
		panic("proto: Compute requires a labeled dataset")
	}
	var set *Set
	features(d.X, func(lo int, feats *tensor.Matrix) {
		if set == nil {
			set = NewSet(d.Classes, feats.Cols)
		}
		for i := 0; i < feats.Rows; i++ {
			y := d.Labels[lo+i]
			vec, ok := set.Vectors[y]
			if !ok {
				vec = make([]float64, feats.Cols)
				set.Vectors[y] = vec
			}
			tensor.AddInto(vec, vec, feats.Row(i))
			set.Counts[y]++
		}
	})
	for class, vec := range set.Vectors {
		inv := 1 / float64(set.Counts[class])
		for j := range vec {
			vec[j] *= inv
		}
	}
	return set
}

// Aggregate merges client prototype sets into global prototypes (Eq. 8).
// For each class, the global prototype is the sample-count-weighted mean of
// the client prototypes that have the class.
//
// Note: the paper's Eq. (8) carries an extra 1/|C_j| factor in front of the
// weighted mean, which would shrink every prototype by the number of
// contributing clients and move it off the data manifold; we read that as a
// typo and implement the weighted mean, which matches the Eq. (8) prose
// ("aggregate the overlapped prototypes ... to derive a global prototype").
func Aggregate(sets []*Set) (*Set, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("proto: Aggregate needs at least one set")
	}
	classes, dim := sets[0].Classes, sets[0].Dim
	for i, s := range sets {
		if s.Classes != classes || s.Dim != dim {
			return nil, fmt.Errorf("proto: set %d has shape (%d classes, %d dim), want (%d, %d)",
				i, s.Classes, s.Dim, classes, dim)
		}
	}
	global := NewSet(classes, dim)
	for class := 0; class < classes; class++ {
		var totalWeight float64
		var totalCount int
		var acc []float64
		for _, s := range sets {
			vec, ok := s.Vectors[class]
			if !ok {
				continue
			}
			w := float64(s.Counts[class])
			if acc == nil {
				acc = make([]float64, dim)
			}
			for j, v := range vec {
				acc[j] += w * v
			}
			totalWeight += w
			totalCount += s.Counts[class]
		}
		if acc == nil || totalWeight == 0 {
			continue
		}
		for j := range acc {
			acc[j] /= totalWeight
		}
		global.Vectors[class] = acc
		global.Counts[class] = totalCount
	}
	return global, nil
}

// Distance returns the L2 distance between a feature vector and the
// prototype of class (Eq. 10). It returns +Inf if the class has no
// prototype, so callers can treat "no prototype" as "no evidence".
func (s *Set) Distance(feat []float64, class int) float64 {
	vec, ok := s.Vectors[class]
	if !ok {
		return math.Inf(1)
	}
	if len(feat) != s.Dim {
		panic(fmt.Sprintf("proto: Distance got %d-dim feature for %d-dim set", len(feat), s.Dim))
	}
	var sum float64
	for j, v := range feat {
		d := v - vec[j]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// TargetMatrixInto builds a matrix whose row i is the prototype of
// labels[i], for use as the MSE target in the prototype losses (Eqs. 12,
// 16), into dst (resized in place when its backing storage is large enough;
// dst may be nil). Rows whose class has no prototype are filled with the
// corresponding row of fallback (typically the model's own features, making
// the loss term zero for that sample). fallback must have one row per label.
func (s *Set) TargetMatrixInto(dst *tensor.Matrix, labels []int, fallback *tensor.Matrix) *tensor.Matrix {
	if fallback.Rows != len(labels) || fallback.Cols != s.Dim {
		panic(fmt.Sprintf("proto: TargetMatrix fallback %dx%d for %d labels, dim %d",
			fallback.Rows, fallback.Cols, len(labels), s.Dim))
	}
	out := tensor.Ensure(dst, len(labels), s.Dim)
	for i, y := range labels {
		if vec, ok := s.Vectors[y]; ok {
			copy(out.Row(i), vec)
		} else {
			copy(out.Row(i), fallback.Row(i))
		}
	}
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet(s.Classes, s.Dim)
	for class, vec := range s.Vectors {
		cp := make([]float64, len(vec))
		copy(cp, vec)
		c.Vectors[class] = cp
		c.Counts[class] = s.Counts[class]
	}
	return c
}
