package expt

import (
	"runtime"

	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
)

// hierarchyPopulation is the simulated-cohort size of the experiment's scale
// leg: far beyond any constructible fleet, so the leg drives the engine's
// associative-reduction contract directly instead of spawning clients.
const hierarchyPopulation = 100_000

// hierarchyDim is the scale leg's synthetic parameter-vector width.
const hierarchyDim = 512

// RunHierarchy is the aggregator-tree experiment, in two legs:
//
// Runtime leg — FedAvg over the real distributed runtime, flat versus a
// depth-2 tree on both transports (bus and TCP) at the same seed. The
// histories must be byte-identical under JSON marshaling: exact tree
// reduction concatenates contiguous sorted shards, which IS the flat
// server's sorted upload list, so hierarchy must change observability (the
// per-tier wire-byte columns this leg reports) and nothing else.
//
// Scale leg — shards of a 100k-client simulated cohort driven through the
// engine's reduction contract (NewExactPartial/Insert) with synthetic
// dim-512 uploads generated on the fly. The leg measures per-process
// retained heap with runtime.ReadMemStats and claims what the tree is FOR:
// leaf memory is O(shard) — retained bytes scale with shard size (shard 1000
// holds >3x shard 100), never with the population.
func RunHierarchy(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:    "hierarchy",
		Title: "Two-tier aggregator tree: flat-equivalence at runtime scale, O(shard) memory at 100k-client scale",
		Cols: []Col{{"leg", Text}, {"mode", Text}, {"clients", Count}, {"shards", Count},
			{"peak_heap_B", Count}, {"tier_up_B", Count}, {"tier_down_B", Count}, {"check", Text}},
	}
	if err := hierarchyRuntimeLeg(res, sc, seed, treeShards(spec, sc)); err != nil {
		return nil, err
	}
	if err := hierarchyScaleLeg(res); err != nil {
		return nil, err
	}
	return res, nil
}

// treeShards is the leaf count the hierarchy and treefaults experiments build
// their tree legs with: the spec's when it enables a tree, two otherwise,
// capped at one client per shard.
func treeShards(spec RunSpec, sc Scale) int {
	shards := 2
	if spec.Distrib.Topology.Enabled() {
		shards = spec.Distrib.Topology.Shards
	}
	if shards > sc.NumClients {
		shards = sc.NumClients
	}
	return shards
}

// hierarchyRuntimeLeg claims the real-runtime equivalence and reports
// measured per-tier traffic.
func hierarchyRuntimeLeg(res *Result, sc Scale, seed uint64, shards int) error {
	rounds := sc.Rounds
	if rounds > 3 {
		rounds = 3
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}

	run := func(mode distrib.Mode, topo distrib.Topology) (*fl.History, *obs.Recorder, error) {
		rec := obs.NewRecorder(AlgoFedAvg)
		r, err := newRun(AlgoFedAvg, TaskC10, setting, sc, seed, false, RunSpec{Recorder: rec})
		if err != nil {
			return nil, nil, err
		}
		hist, err := distrib.Run(r, rounds, distrib.Options{Mode: mode, Topology: topo})
		return hist, rec, err
	}

	flatHist, _, err := run(distrib.ModeBus, distrib.Topology{})
	if err != nil {
		return err
	}
	res.AddRow("runtime", "flat/bus", sc.NumClients, 1, None, 0, 0, "baseline")

	for _, mode := range []distrib.Mode{distrib.ModeBus, distrib.ModeTCP} {
		hist, rec, err := run(mode, distrib.Topology{Shards: shards})
		if err != nil {
			return err
		}
		same, err := sameHistory(flatHist, hist)
		if err != nil {
			return err
		}
		var up, down int64
		for _, tr := range rec.Traces() {
			up += tr.TierUpBytes
			down += tr.TierDownBytes
		}
		res.Claims = append(res.Claims, hierarchyIdentical(string(mode), same),
			hierarchyTierBilled(string(mode), up, down))
		res.AddRow("runtime", "tree/"+string(mode), sc.NumClients, shards, None, up, down,
			"history byte-identical to flat")
	}
	return nil
}

// hierarchyScaleLeg reduces shards of the 100k-client simulated cohort and
// claims the leaf memory bound.
func hierarchyScaleLeg(res *Result) error {
	const n = hierarchyPopulation

	// Leaf memory: retained heap after reducing one shard must scale with the
	// shard, not the population.
	heap100, err := exactShardHeap(100)
	if err != nil {
		return err
	}
	heap1000, err := exactShardHeap(1000)
	if err != nil {
		return err
	}
	res.Claims = append(res.Claims, hierarchyHeap(heap100, heap1000))
	res.AddRow("scale", "exact-leaf", n, 1000, heap100, None, None, "retained heap ∝ shard (shard size 100)")
	res.AddRow("scale", "exact-leaf", n, 100, heap1000, None, None, "retained heap ∝ shard (shard size 1000)")
	return nil
}

// synthUpload fills vec with client c's deterministic synthetic parameter
// vector and returns its aggregation weight. A cheap LCG keeps the 100k×512
// generation fast while varying every coordinate.
func synthUpload(c int, vec []float64) (weight float64) {
	x := uint64(c)*6364136223846793005 + 1442695040888963407
	for j := range vec {
		x = x*6364136223846793005 + 1442695040888963407
		vec[j] = float64(int64(x>>11))/float64(1<<52) - 1
	}
	return 1 + float64(c%7)
}

// retainedHeap measures the heap bytes build's result keeps alive: HeapAlloc
// delta across the build with a full GC on both sides, so transient garbage
// does not count. The first side takes two collections: a sync.Pool (the
// tensor scratch arena) survives one in its victim cache, and a victim still
// live at the first reading would be freed by the closing collection, inside
// the window, and cancel the build's own bytes.
func retainedHeap(build func() (any, error)) (int64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v, err := build()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if d < 0 {
		d = 0
	}
	return d, nil
}

// exactShardHeap builds one leaf partial over a shard of the
// simulated cohort and returns its retained bytes.
func exactShardHeap(shardSize int) (int64, error) {
	return retainedHeap(func() (any, error) {
		p := engine.NewExactPartial(0)
		vec := make([]float64, hierarchyDim)
		for c := 0; c < shardSize; c++ {
			w := synthUpload(c, vec)
			params := make([]float64, hierarchyDim)
			copy(params, vec)
			u := engine.Upload{Client: c, Payload: &engine.Payload{Params: params, NumSamples: int(w)}}
			if err := p.Insert(u); err != nil {
				return nil, err
			}
		}
		return p, nil
	})
}
