package distrib

import (
	"errors"

	"fedpkd/internal/faults"
)

// Aggregator-tree plumbing. With Options.Topology enabled the service splits
// the flat server's receive path into two composable roles: leaf aggregators
// (one goroutine per shard, see leaf.go) that own contiguous client id
// ranges and stream-reduce their shard's uploads, and a root (root.go) that
// merges shard digests only and never holds per-client state. The client
// fabric is unchanged — every client still talks to the same fan-in endpoint
// — so the split is invisible on the client side: a demultiplexer goroutine
// routes each inbound envelope to its owning leaf by shard, and the leaves
// fan the root's round framing back out with the exact bytes and billing the
// flat server would have used. The leaf↔root tier is a second transport
// fabric of the same mode (in-memory bus or loopback TCP), so a ModeTCP tree
// exercises real sockets on both tiers.
type treeParts struct {
	topo Topology
	// upper is the leaf↔root fabric: upper.clients[i] is leaf i's upward
	// conn, upper.server the root's fan-in.
	upper *transportParts
	// leafUp[i] is leaf i's upward conn behind the tier chaos decorator
	// (faults.WrapTier): digests sent through it are fault subjects, every
	// other kind and all receives pass through untouched. With no tier plan
	// the decorator is a pass-through, so strict trees are unchanged.
	leafUp []*faults.Conn
	// rootRx pumps the root's fan-in for the tier plane's collector; the root
	// itself never holds it (root.go).
	rootRx *receiver
	// leafRx[i] is leaf i's client-plane inbox, fed by the demultiplexer
	// (chan-backed receivers with no pump of their own).
	leafRx []*receiver
	// leafDone carries one result per leaf per round, the leaf-tier analog of
	// the client done channel.
	leafDone chan error
}

// newChanReceiver returns a receiver with no pump goroutine: the
// demultiplexer pushes routed results in, and closing the channel (demux
// teardown) surfaces io.EOF to the leaf exactly as a dead conn would.
func newChanReceiver(buf int) *receiver {
	return &receiver{ch: make(chan recvResult, buf), done: make(chan struct{})}
}

// push delivers one result into a chan-backed receiver, giving up if the
// receiver was stopped.
func (r *receiver) push(res recvResult) bool {
	select {
	case r.ch <- res:
		return true
	case <-r.done:
		return false
	}
}

// demux owns the server receiver in tree mode: it routes every inbound
// client-plane result to the leaf whose shard the sender belongs to, so each
// leaf's collect loop sees exactly the traffic the flat server would have
// attributed to its shard. A lost peer routes by the dead peer's id; a
// terminal transport error fans to every leaf (each shard's collect must
// observe the fabric dying); an envelope whose sender cannot be shard-
// attributed goes to leaf 0, which adjudicates it exactly once — strict mode
// turns it into the round error, tolerant mode counts it once, never once
// per shard. When the server receiver closes, the leaf inboxes close too.
func (s *Service) demux() {
	tree := s.tree
	defer func() {
		for _, lr := range tree.leafRx {
			close(lr.ch)
		}
	}()
	for res := range s.srx.ch {
		if res.err != nil {
			var gone *peerGoneError
			if errors.As(res.err, &gone) && gone.id >= 0 && gone.id < s.n {
				tree.leafRx[ShardOf(gone.id, s.n, tree.topo.Shards)].push(res)
				continue
			}
			for _, lr := range tree.leafRx {
				lr.push(res)
			}
			continue
		}
		shard := 0
		if res.e.From >= 0 && res.e.From < s.n {
			shard = ShardOf(res.e.From, s.n, tree.topo.Shards)
		}
		tree.leafRx[shard].push(res)
	}
}

// setupTree builds the upper fabric, the per-leaf inboxes, and the leaf and
// demux goroutines. Called from NewService after the client fabric and
// server receiver exist; the caller owns cleanup of the client fabric on
// error.
func (s *Service) setupTree() error {
	topo := s.opts.Topology
	upper, err := buildTransport(s.opts.Mode, topo.Shards, func(int) {})
	if err != nil {
		return err
	}
	tree := &treeParts{
		topo:     topo,
		upper:    upper,
		rootRx:   newReceiver(upper.server),
		leafRx:   make([]*receiver, topo.Shards),
		leafUp:   make([]*faults.Conn, topo.Shards),
		leafDone: make(chan error, topo.Shards),
	}
	// A leaf inbox must absorb a full shard of uploads plus tolerant-mode
	// stragglers and registration traffic without stalling the demux.
	buf := 2*(s.n/topo.Shards+1) + 16
	s.leafStart = make([]chan int, topo.Shards)
	shards := make([]int, topo.Shards)
	s.root = &root{
		runner: s.runner, rec: s.rec, opts: &s.opts,
		send:      upper.server.Send,
		collector: func(t int, l ladder) *collector { return newCollector(s.tier, tree.rootRx, t, shards, l) },
		children:  make([]shardChild, topo.Shards),
	}
	for i := range tree.leafRx {
		tree.leafRx[i] = newChanReceiver(buf)
		tree.leafUp[i] = faults.WrapTier(upper.clients[i], s.opts.Faults, i, s.fstats)
		s.leafStart[i] = make(chan int, 1)
		shards[i] = i
		s.root.children[i] = shardChild{end: shardEnd(i, s.n, topo.Shards), health: ShardHealth{Shard: i, LastDigestRound: -1}}
	}
	s.tree = tree
	go s.demux()
	for i := 0; i < topo.Shards; i++ {
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
