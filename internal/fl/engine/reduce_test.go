package engine

import (
	"math/rand"
	"testing"
)

// synthReduceUploads builds n distinct uploads with recognizable payloads.
func synthReduceUploads(n int) []Upload {
	ups := make([]Upload, n)
	for c := 0; c < n; c++ {
		ups[c] = Upload{Client: c, Payload: &Payload{Params: []float64{float64(c), float64(c) * 0.5}, NumSamples: c + 1}}
	}
	return ups
}

// TestTreeReduceEqualsFlatOrder is the associative-reduction proof
// obligation: for any shard count, inserting each shard's uploads in an
// arbitrary arrival order and concatenating the partials with MergeExact
// must reproduce the flat server's sorted-by-client-id upload list exactly —
// same clients, same payload values, same order. Aggregate is a pure
// function of that list, so this is what makes a tree round bit-identical
// to a flat round.
func TestTreeReduceEqualsFlatOrder(t *testing.T) {
	const n = 100
	flat := synthReduceUploads(n)
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 2, 3, 7, 10, n} {
		parts := make([]*Partial, shards)
		for s := range parts {
			parts[s] = NewExactPartial(s)
		}
		// Contiguous ranges (Topology.ShardOf), scrambled arrival within each.
		order := rng.Perm(n)
		for _, c := range order {
			s := c * shards / n
			if err := parts[s].Insert(flat[c]); err != nil {
				t.Fatalf("shards=%d insert client %d: %v", shards, c, err)
			}
		}
		merged, err := MergeExact(parts)
		if err != nil {
			t.Fatalf("shards=%d merge: %v", shards, err)
		}
		if len(merged) != n {
			t.Fatalf("shards=%d merged %d uploads, want %d", shards, len(merged), n)
		}
		for i, u := range merged {
			if u.Client != i || u.Payload != flat[i].Payload {
				t.Fatalf("shards=%d position %d holds client %d (payload match %v); tree order diverged from the flat sort", shards, i, u.Client, u.Payload == flat[i].Payload)
			}
		}
	}
}

// TestPartialInsertRejectsDuplicates pins the leaf-side invariant: the
// transport's dedup runs before the reduction, so a duplicate reaching
// Insert is a harness bug and must fail loudly, not silently overwrite.
func TestPartialInsertRejectsDuplicates(t *testing.T) {
	p := NewExactPartial(0)
	u := Upload{Client: 3, Payload: &Payload{Params: []float64{1}}}
	if err := p.Insert(u); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(u); err == nil {
		t.Fatal("duplicate client accepted")
	}
}

// TestMergeExactValidatesTreeInvariant pins MergeExact's refusal to repair
// broken shard structure: partials out of shard order and client ranges that
// interleave across shards are errors — the merge validates the
// contiguous-range invariant instead of re-sorting, because re-sorting would
// mask a mis-sharded tree.
func TestMergeExactValidatesTreeInvariant(t *testing.T) {
	mk := func(shard int, clients ...int) *Partial {
		p := NewExactPartial(shard)
		for _, c := range clients {
			if err := p.Insert(Upload{Client: c, Payload: &Payload{}}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	if _, err := MergeExact([]*Partial{mk(1, 2, 3), mk(0, 0, 1)}); err == nil {
		t.Fatal("out-of-shard-order partials accepted")
	}
	if _, err := MergeExact([]*Partial{mk(0, 0, 5), mk(1, 3, 7)}); err == nil {
		t.Fatal("interleaved client ranges accepted")
	}

	// Nil partials (skipped shards) and empty partials are fine.
	merged, err := MergeExact([]*Partial{mk(0, 0, 1), nil, mk(2), mk(3, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 || merged[0].Client != 0 || merged[1].Client != 1 || merged[2].Client != 5 {
		t.Fatalf("merged = %v", merged)
	}
}
