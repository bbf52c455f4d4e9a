package engine

import (
	"fmt"
	"sort"
)

// Associative-reduction contract for hierarchical aggregation. A flat server
// feeds Hooks.Aggregate the round's uploads sorted by client id; an
// aggregator tree instead reduces each shard into a Partial at its leaf and
// merges the partials at the root. A leaf keeps its shard's uploads sorted
// by client id, and MergeExact concatenates shards in ascending shard order.
// Because shards partition the id space into contiguous ranges, the
// concatenation IS the globally sorted upload list — the root's Aggregate
// sees bit-for-bit the slice a flat server would have built, so every
// algorithm is tree-ready with no new code and the goldens keep pinning
// behaviour.
type Partial struct {
	// Shard is the contiguous id-range index this partial reduces
	// (Topology.ShardOf order).
	Shard int
	// Uploads holds the shard's surviving uploads, kept sorted by client id.
	Uploads []Upload
}

// NewExactPartial returns an empty partial for one shard. It is
// runner-free so scale harnesses can drive the reduction contract for
// populations far larger than any constructible fleet.
func NewExactPartial(shard int) *Partial {
	return &Partial{Shard: shard}
}

// Insert folds one upload into a partial, keeping the shard's uploads
// sorted by client id. A duplicate client id is rejected — the transport's
// dedup runs first, so a duplicate here is a harness bug.
func (p *Partial) Insert(u Upload) error {
	i := sort.Search(len(p.Uploads), func(i int) bool { return p.Uploads[i].Client >= u.Client })
	if i < len(p.Uploads) && p.Uploads[i].Client == u.Client {
		return fmt.Errorf("engine: duplicate client %d in shard %d partial", u.Client, p.Shard)
	}
	p.Uploads = append(p.Uploads, Upload{})
	copy(p.Uploads[i+1:], p.Uploads[i:])
	p.Uploads[i] = u
	return nil
}

// MergeExact concatenates partials into the flat sorted upload list.
// It validates the tree invariant instead of re-sorting: partials must
// arrive in ascending shard order and their client ranges must be disjoint
// and ascending across the shard boundary, which is exactly what contiguous
// id-range sharding guarantees. The returned slice is what a flat server's
// sort would have produced, so hooks.Aggregate over it is bit-identical to
// the flat path.
func MergeExact(parts []*Partial) ([]Upload, error) {
	total := 0
	lastShard := -1
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Shard <= lastShard {
			return nil, fmt.Errorf("engine: partials out of shard order (%d after %d)", p.Shard, lastShard)
		}
		lastShard = p.Shard
		total += len(p.Uploads)
	}
	merged := make([]Upload, 0, total)
	lastClient := -1
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, u := range p.Uploads {
			if u.Client <= lastClient {
				return nil, fmt.Errorf("engine: shard %d client %d breaks ascending id order (last %d); shards must partition contiguous id ranges", p.Shard, u.Client, lastClient)
			}
			lastClient = u.Client
			merged = append(merged, u)
		}
	}
	return merged, nil
}
