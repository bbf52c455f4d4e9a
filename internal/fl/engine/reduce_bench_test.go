package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// Round-reduction benchmarks: the flat server's collect-then-sort against
// the tree's per-shard sorted inserts plus MergeExact, at simulated-cohort
// sizes. bench/ measures the same two paths as its engine.reduce_* probes.

const benchReduceDim = 64

func benchUploads(n int) ([]Upload, []int) {
	ups := make([]Upload, n)
	for c := 0; c < n; c++ {
		params := make([]float64, benchReduceDim)
		for j := range params {
			params[j] = float64(c*benchReduceDim + j)
		}
		ups[c] = Upload{Client: c, Payload: &Payload{Params: params, NumSamples: 1}}
	}
	return ups, rand.New(rand.NewSource(11)).Perm(n)
}

// benchFlatReduce models the flat path: append uploads in arrival order,
// then sort by client id — what the single server does before Aggregate.
func benchFlatReduce(b *testing.B, n int) {
	ups, order := benchUploads(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := make([]Upload, 0, n)
		for _, c := range order {
			got = append(got, ups[c])
		}
		sort.Slice(got, func(a, z int) bool { return got[a].Client < got[z].Client })
		if got[0].Client != 0 {
			b.Fatal("sort broke")
		}
	}
}

// benchTreeReduce models the tree path: per-shard sorted inserts at the
// leaves, then the root's validating concatenation.
func benchTreeReduce(b *testing.B, n, shards int) {
	ups, order := benchUploads(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*Partial, shards)
		for s := range parts {
			parts[s] = NewExactPartial(s)
		}
		for _, c := range order {
			if err := parts[c*shards/n].Insert(ups[c]); err != nil {
				b.Fatal(err)
			}
		}
		merged, err := MergeExact(parts)
		if err != nil {
			b.Fatal(err)
		}
		if len(merged) != n {
			b.Fatal("merge lost uploads")
		}
	}
}

func BenchmarkReduceFlat1k(b *testing.B)  { benchFlatReduce(b, 1_000) }
func BenchmarkReduceFlat10k(b *testing.B) { benchFlatReduce(b, 10_000) }
func BenchmarkReduceTree1k(b *testing.B)  { benchTreeReduce(b, 1_000, 32) }
func BenchmarkReduceTree10k(b *testing.B) { benchTreeReduce(b, 10_000, 100) }
