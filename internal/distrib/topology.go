package distrib

import "fmt"

// Topology configures the aggregator tree. The zero value is the flat
// runtime: one server endpoint owns every client. With Shards > 1 the
// service builds a two-tier tree instead — one leaf aggregator per shard
// owning a contiguous client id range, stream-reducing its shard's uploads
// into a compact partial, and forwarding one shard digest to the root, which
// merges digests only and never touches per-client state. The client-side
// protocol and its ledger columns are byte-identical between the two shapes;
// the tree's leaf↔root backhaul is billed separately as tier traffic.
type Topology struct {
	// Shards is the number of leaf aggregators; values below 2 mean flat.
	Shards int
	// Compact opts into streaming reduction at the leaves: uploads are folded
	// into the algorithm's CompactReducer as they arrive and never retained
	// per client, making leaf memory O(1) in shard size. Floating-point
	// addition is not associative, so compact mode matches the flat fold to
	// ~1e-9 rather than bit-for-bit; leave it off (the exact mode) when
	// byte-identical replay matters. Requires the algorithm to implement
	// engine.CompactReducer and is incompatible with asynchronous flushes.
	Compact bool
}

// Enabled reports whether the options request a tree at all.
func (tp Topology) Enabled() bool { return tp.Shards > 1 }

// validate rejects topologies the runtime cannot build for an n-client
// universe.
func (tp Topology) validate(n int) error {
	if tp.Shards < 0 {
		return fmt.Errorf("distrib: negative shard count %d", tp.Shards)
	}
	if !tp.Enabled() {
		if tp.Compact {
			return fmt.Errorf("distrib: Compact reduction needs an aggregator tree (Shards > 1)")
		}
		return nil
	}
	if tp.Shards > n {
		return fmt.Errorf("distrib: %d shards for %d clients; each leaf needs a non-empty id range", tp.Shards, n)
	}
	return nil
}

// ShardOf maps a client id to its owning shard. Shards are contiguous id
// ranges — shard s owns [ceil(s·n/S), ceil((s+1)·n/S)) — which is the
// load-balanced partition with the property the exact reduction mode relies
// on: concatenating per-shard sorted uploads in ascending shard order yields
// the globally client-sorted list, so tree-reduce ≡ flat Aggregate
// bit-for-bit.
func ShardOf(id, n, shards int) int {
	return id * shards / n
}

// shardEnd returns the exclusive upper bound of shard s's id range.
func shardEnd(s, n, shards int) int {
	return ((s+1)*n + shards - 1) / shards
}
