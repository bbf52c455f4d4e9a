package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"fedpkd/internal/distrib"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// RunTreeFaults is the fault-tolerant aggregator-tier experiment, self-
// checking in three legs:
//
// Strict leg — a zero-plan tolerant tree (finite LeafTimeout, no chaos) must
// produce a history byte-identical to the strict tree at the same seed: the
// fault machinery must be invisible until a fault actually fires.
//
// Chaos legs (bus and TCP) — FedAvg through a depth-2 tree under a seeded
// leaf-crash plan chosen so at least two leaves die across the run. Crashed
// leaves take their whole shard out of the round; the root merges the
// surviving partials and records a degraded round with the lost-shard set.
// Each leg runs twice and must replay byte-identically: same history JSON,
// same per-tier ledger totals, same per-round lost-shard sets — the
// determinism contract that makes tier chaos debuggable.
//
// The spec's Distrib fields override the defaults: a positive LeafTimeout
// replaces the one-minute digest deadline, ShardQuorum > 0 makes rounds that
// merge fewer shard digests abort, and Topology sets the leaf count.
func RunTreeFaults(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:     "treefaults",
		Title:  "Aggregator-tree fault tolerance: leaf crashes, degraded rounds, deterministic replay",
		Header: []string{"leg", "mode", "shards", "leaf_kills", "degraded", "lost_shards", "check"},
	}
	rounds := sc.Rounds
	if rounds > 3 {
		rounds = 3
	}
	shards := treeShards(spec, sc)
	timeout := time.Minute
	if spec.Distrib.LeafTimeout > 0 {
		timeout = spec.Distrib.LeafTimeout
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}

	run := func(mode distrib.Mode, plan *faults.Plan, tmo time.Duration) (*fl.History, int64, int64, error) {
		rec := obs.NewRecorder(AlgoFedAvg)
		r, err := newRun(AlgoFedAvg, TaskC10, setting, sc, seed, false, RunSpec{Recorder: rec})
		if err != nil {
			return nil, 0, 0, err
		}
		hist, err := distrib.Run(r, rounds, distrib.Options{
			Mode:        mode,
			Faults:      plan,
			LeafTimeout: tmo,
			ShardQuorum: spec.Distrib.ShardQuorum,
			Topology:    distrib.Topology{Shards: shards},
		})
		if err != nil {
			return nil, 0, 0, err
		}
		var up, down int64
		for _, tr := range rec.Traces() {
			up += tr.TierUpBytes
			down += tr.TierDownBytes
		}
		return hist, up, down, nil
	}

	// Strict leg: the tolerant tree with no plan must be invisible.
	strictHist, _, _, err := run(distrib.ModeBus, nil, 0)
	if err != nil {
		return nil, err
	}
	tolHist, _, _, err := run(distrib.ModeBus, nil, timeout)
	if err != nil {
		return nil, err
	}
	strictJSON, err := json.Marshal(strictHist)
	if err != nil {
		return nil, err
	}
	tolJSON, err := json.Marshal(tolHist)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(strictJSON, tolJSON) {
		return nil, fmt.Errorf("expt: zero-plan tolerant tree diverged from the strict tree at equal config")
	}
	res.AddRow("strict", "bus", fmt.Sprintf("%d", shards), "0", "0", "-",
		"zero-plan tolerant ≡ strict")

	// Seed search for a leaf-crash plan with at least two kills and at least
	// one surviving shard-round: LeafCrashesAt is a pure function of the plan,
	// so the schedule is known before any run.
	plan, kills := findLeafCrashPlan(seed, shards, rounds)

	for _, mode := range []distrib.Mode{distrib.ModeBus, distrib.ModeTCP} {
		hist1, up1, down1, err := run(mode, plan, timeout)
		if err != nil {
			return nil, err
		}
		hist2, up2, down2, err := run(mode, plan, timeout)
		if err != nil {
			return nil, err
		}
		j1, err := json.Marshal(hist1)
		if err != nil {
			return nil, err
		}
		j2, err := json.Marshal(hist2)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(j1, j2) {
			return nil, fmt.Errorf("expt: leaf-crash chaos over %s did not replay byte-identically", mode)
		}
		if up1 != up2 || down1 != down2 {
			return nil, fmt.Errorf("expt: tier ledger totals over %s did not replay (up %d vs %d, down %d vs %d)",
				mode, up1, up2, down1, down2)
		}
		lost := lostShardSet(hist1)
		if hist1.DegradedCount() == 0 || len(lost) == 0 {
			return nil, fmt.Errorf("expt: %d leaf kills over %s produced no degraded rounds with lost shards", kills, mode)
		}
		res.AddRow("chaos", string(mode), fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", kills), fmt.Sprintf("%d", hist1.DegradedCount()),
			fmt.Sprintf("%v", lost), "replay byte-identical")
	}
	return res, nil
}

// findLeafCrashPlan derives a leaf-crash plan from the experiment seed whose
// pure schedule kills at least two leaves across the run while leaving at
// least one shard-round alive.
func findLeafCrashPlan(seed uint64, shards, rounds int) (*faults.Plan, int) {
	for s := seed; ; s++ {
		plan := &faults.Plan{Seed: s, LeafCrashProb: 0.35}
		kills := 0
		for t := 0; t < rounds; t++ {
			for l := 0; l < shards; l++ {
				if plan.LeafCrashesAt(l, t) {
					kills++
				}
			}
		}
		if kills >= 2 && kills < shards*rounds {
			return plan, kills
		}
	}
}

// lostShardSet collects the union of per-round lost-shard sets from a
// history's degraded-round records.
func lostShardSet(hist *fl.History) []int {
	seen := map[int]bool{}
	var lost []int
	for _, d := range hist.Degraded {
		for _, s := range d.LostShards {
			if !seen[s] {
				seen[s] = true
				lost = append(lost, s)
			}
		}
	}
	return lost
}
