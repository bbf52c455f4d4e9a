package fedpkd

import (
	"fedpkd/internal/distrib"
	"fedpkd/internal/faults"
)

// Distributed-execution types, aliased for the public surface.
type (
	// DistributedMode selects the wire (bus or TCP).
	DistributedMode = distrib.Mode
	// DistributedOptions parameterizes the failure-tolerant distributed
	// runtime: straggler deadline, minimum quorum, fault plan, retry policy.
	DistributedOptions = distrib.Options
	// FaultPlan is a deterministic seed-driven chaos plan injected beneath
	// the distributed protocol.
	FaultPlan = faults.Plan
	// FaultStats accumulates injected-fault counters across a run.
	FaultStats = faults.Stats
	// RetryBackoff configures the clients' upload retry schedule.
	RetryBackoff = faults.Backoff
	// Topology shapes the aggregator tree a distributed run reduces
	// through: Shards > 1 enables two-tier reduction (leaf aggregators
	// over contiguous client-id ranges, a root merging shard digests).
	Topology = distrib.Topology
)

// Named protocol-robustness errors, for errors.Is against a distributed
// run's failure.
var (
	ErrStaleEnvelope     = distrib.ErrStaleEnvelope
	ErrPeerMismatch      = distrib.ErrPeerMismatch
	ErrDuplicateUpload   = distrib.ErrDuplicateUpload
	ErrQuorumNotMet      = distrib.ErrQuorumNotMet
	ErrShardQuorumNotMet = distrib.ErrShardQuorumNotMet
	ErrUnknownClient     = distrib.ErrUnknownClient
)

// Distributed transport modes.
const (
	ModeBus = distrib.ModeBus
	ModeTCP = distrib.ModeTCP
)

// RunDistributed executes rounds additional rounds (or async flushes) of any
// engine-backed algorithm (everything BuildAlgorithm or the New* constructors
// return) over the transport layer, with the server and every client in
// their own goroutine (real TCP with ModeTCP). Accuracy trajectories are
// bit-identical to the in-process Run; the ledger records actual encoded wire
// bytes instead of the analytic sizes. The zero options (plus a Mode) are the
// strict runtime; a finite ClientTimeout lets rounds complete with partial
// cohorts instead of stalling on stragglers, a FaultPlan injects
// deterministic chaos, and MinQuorum aborts rounds that heard from too few
// clients. Partial rounds are recorded in History.Degraded. To run a resumed
// algorithm until a total, subtract CompletedRounds; to reach the running
// service (status, Join/Leave), use NewService.
func RunDistributed(algo Algorithm, rounds int, opts DistributedOptions) (*History, error) {
	return distrib.Run(algo, rounds, opts)
}
