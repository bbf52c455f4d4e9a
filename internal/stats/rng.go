// Package stats provides the numeric and statistical substrate shared by the
// rest of the repository: deterministic RNG plumbing, Dirichlet/Gamma
// sampling for non-IID data partitioning, softmax-family transforms, and
// classification metrics.
package stats

import (
	"math/rand/v2"
)

// RNG is the random source used throughout the repository. It is an alias so
// callers do not need to import math/rand/v2 themselves.
type RNG = rand.Rand

// NewRNG returns a deterministic RNG seeded with the given seed.
//
// All randomness in the repository flows from explicitly seeded RNGs so that
// every experiment is reproducible bit-for-bit.
func NewRNG(seed uint64) *RNG {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Split derives a child RNG from a parent seed and a stream label. Distinct
// labels yield statistically independent streams, which lets concurrent
// clients draw randomness without sharing (and therefore racing on) a single
// source.
func Split(seed uint64, label uint64) *RNG {
	return rand.New(rand.NewPCG(seed+0x9e3779b97f4a7c15*(label+1), label^0xda942042e4dd58b5))
}

// Mix folds draw coordinates into one Split stream label (splitmix64-style
// finalization, applied per field so permuted inputs never collide) — how
// internal/faults and the engine's arrival schedule and availability trace
// key draws that must be pure functions of their coordinates.
func Mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// Perm returns a random permutation of [0, n) drawn from rng.
func Perm(rng *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(rng, p)
	return p
}

// Shuffle permutes xs in place using the Fisher-Yates algorithm.
func Shuffle[T any](rng *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
