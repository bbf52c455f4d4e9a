package distrib

import "fedpkd/internal/faults"

// Aggregator-tree plumbing. With Options.Topology enabled the service splits
// the flat server's receive path into two composable roles: leaf aggregators
// (one goroutine per shard, see leaf.go) that own contiguous client id
// ranges and reduce their shard's uploads into sorted partials, and a root
// (root.go) that merges shard digests only and never holds per-client
// connections. The client fabric is unchanged — every client still talks to
// the same fan-in endpoint — so the split is invisible on the client side:
// the fabric's pumps deliver each inbound envelope straight into its owning
// leaf's inbox (Service.inbox), and the leaves fan the root's round framing
// back out with the exact bytes and billing the flat server would have used.
// The leaf↔root tier is a second transport fabric of the same mode (in-memory
// bus or loopback TCP), so a ModeTCP tree exercises real sockets on both
// tiers.
type treeParts struct {
	// upper is the leaf↔root fabric: upper.clients[i] is leaf i's upward
	// conn, upper.send the root's way down.
	upper *transportParts
	// leafUp[i] is leaf i's upward conn behind the tier chaos decorator
	// (faults.WrapTier): digests sent through it are fault subjects, every
	// other kind and all receives pass through untouched. With no tier plan
	// the decorator is a pass-through, so strict trees are unchanged.
	leafUp []*faults.Conn
	// leafDone carries one result per leaf per round, the leaf-tier analog of
	// the client done channel.
	leafDone chan error
}

// setupTree builds the upper fabric, whose fan-in feeds the root's one inbox,
// and the leaf goroutines. Called from NewService after the client fabric,
// whose fan-in already feeds the leaf inboxes, exists; the caller owns cleanup
// of the client fabric on error.
func (s *Service) setupTree() error {
	shards := s.opts.Topology.Shards
	rootIn := make(inbox, shards+4)
	upper, err := buildTransport(s.opts.Mode, shards, []inbox{rootIn}, func(int) inbox { return rootIn }, func(int) {})
	if err != nil {
		return err
	}
	tree := &treeParts{
		upper:    upper,
		leafUp:   make([]*faults.Conn, shards),
		leafDone: make(chan error, shards),
	}
	s.leafStart = make([]chan int, shards)
	ids := make([]int, shards)
	s.root = &root{
		runner: s.runner, rec: s.rec, opts: &s.opts,
		send:      upper.send,
		collector: func(t int, l ladder) *collector { return newCollector(s.tier, rootIn, t, ids, l) },
		children:  make([]shardChild, shards),
	}
	for i := range shards {
		tree.leafUp[i] = faults.WrapTier(upper.clients[i], s.opts.Faults, i, s.fstats, s.tier.clock)
		s.leafStart[i] = make(chan int, 1)
		ids[i] = i
		s.root.children[i] = shardChild{end: shardEnd(i, s.n, shards), health: ShardHealth{Shard: i, LastDigestRound: -1}}
	}
	s.tree = tree
	for i := range shards {
		go s.leafWorker(i, s.leafStart[i])
	}
	return nil
}

// drainLeafDone collects one result per leaf for the round just served,
// keeping the first failure.
func (s *Service) drainLeafDone(firstErr *error) {
	for range s.leafStart {
		if err := <-s.tree.leafDone; err != nil && *firstErr == nil {
			*firstErr = err
		}
	}
}
