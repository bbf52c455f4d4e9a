package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
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
// Scale leg — an honest 100k-client simulated cohort driven through the
// engine's reduction contract (NewExactPartial/Insert/MergeExact and a
// compact fold) with synthetic dim-512 uploads generated on the fly. The
// leg measures per-process retained heap with runtime.ReadMemStats and
// asserts what the tree is FOR:
//
//   - exact leaf memory is O(shard): retained bytes scale with shard size
//     (shard 1000 holds >3x shard 100), never with the population;
//   - compact leaf memory is O(1): a single running sum, independent of
//     shard size;
//   - the tree fold matches the flat fold to 1e-9 relative error (compact
//     reduction reorders float additions; exact mode's bit-equality is
//     pinned by the runtime leg and the goldens).
//
// Tier wire bytes for the scale leg are estimated by encoding
// representative digest/assignment envelopes at the same shard shape.
func RunHierarchy(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:     "hierarchy",
		Title:  "Two-tier aggregator tree: flat-equivalence at runtime scale, O(shard) memory at 100k-client scale",
		Header: []string{"leg", "mode", "clients", "shards", "peak_heap_B", "tier_up_B", "tier_down_B", "check"},
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

// hierarchyRuntimeLeg runs the real-runtime equivalence check and reports
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
	want, err := json.Marshal(flatHist)
	if err != nil {
		return err
	}
	res.AddRow("runtime", "flat/bus", fmt.Sprintf("%d", sc.NumClients), "1", "-", "0", "0", "baseline")

	for _, mode := range []distrib.Mode{distrib.ModeBus, distrib.ModeTCP} {
		hist, rec, err := run(mode, distrib.Topology{Shards: shards})
		if err != nil {
			return err
		}
		got, err := json.Marshal(hist)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("expt: depth-2 tree over %s diverged from the flat history at equal config", mode)
		}
		var up, down int64
		for _, tr := range rec.Traces() {
			up += tr.TierUpBytes
			down += tr.TierDownBytes
		}
		if up == 0 || down == 0 {
			return fmt.Errorf("expt: tree run over %s billed no tier traffic (up=%d down=%d)", mode, up, down)
		}
		res.AddRow("runtime", "tree/"+string(mode), fmt.Sprintf("%d", sc.NumClients),
			fmt.Sprintf("%d", shards), "-", fmt.Sprintf("%d", up), fmt.Sprintf("%d", down),
			"history byte-identical to flat")
	}
	return nil
}

// hierarchyScaleLeg drives the 100k-client simulated cohort through the
// reduction contract and asserts the memory and fidelity bounds.
func hierarchyScaleLeg(res *Result) error {
	const n = hierarchyPopulation

	// Flat fold: the single server's weighted mean, streamed in client order
	// with O(1) state — the numerical reference.
	flatMean := foldMean(0, n)

	// Tree fold: per-shard partial sums merged at the root. Contiguous
	// ranges, shard-order merge — the compact tree's summation order.
	for _, shards := range []int{100, 1000} {
		shardSize := n / shards
		treeMean := make([]float64, hierarchyDim)
		var treeWeight float64
		for s := 0; s < shards; s++ {
			sum, w := foldSum(s*shardSize, (s+1)*shardSize)
			for j := range treeMean {
				treeMean[j] += sum[j]
			}
			treeWeight += w
		}
		var maxRel float64
		for j := range treeMean {
			treeMean[j] /= treeWeight
			if rel := relErr(treeMean[j], flatMean[j]); rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > 1e-9 {
			return fmt.Errorf("expt: %d-shard tree fold deviates from the flat fold by %g (budget 1e-9)", shards, maxRel)
		}
		up, down := estimateTierBytes(shards, shardSize)
		res.AddRow("scale", fmt.Sprintf("compact-fold (dev %.1e)", maxRel), fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", shards), "-", fmt.Sprintf("%d", up), fmt.Sprintf("%d", down),
			"tree ≡ flat within 1e-9")
	}

	// Exact-mode leaf memory: retained heap after reducing one shard must
	// scale with the shard, not the population.
	heap100, err := exactShardHeap(100)
	if err != nil {
		return err
	}
	heap1000, err := exactShardHeap(1000)
	if err != nil {
		return err
	}
	if heap100 <= 0 || heap1000 <= 3*heap100 {
		return fmt.Errorf("expt: exact leaf heap did not scale with shard size (shard100=%dB shard1000=%dB, want >3x)", heap100, heap1000)
	}
	res.AddRow("scale", "exact-leaf", fmt.Sprintf("%d", n), "1000",
		fmt.Sprintf("%d", heap100), "-", "-", "retained heap ∝ shard (shard size 100)")
	res.AddRow("scale", "exact-leaf", fmt.Sprintf("%d", n), "100",
		fmt.Sprintf("%d", heap1000), "-", "-", "retained heap ∝ shard (shard size 1000)")

	// Compact-mode leaf memory: one running sum regardless of shard size.
	compactHeap, err := compactShardHeap(1000)
	if err != nil {
		return err
	}
	if compactHeap*4 >= heap1000 {
		return fmt.Errorf("expt: compact leaf heap %dB is not far below the exact shard's %dB", compactHeap, heap1000)
	}
	res.AddRow("scale", "compact-leaf", fmt.Sprintf("%d", n), "100",
		fmt.Sprintf("%d", compactHeap), "-", "-", "O(1): single running sum")
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

// foldSum streams clients [lo, hi) into a weighted sum with O(1) state.
func foldSum(lo, hi int) ([]float64, float64) {
	sum := make([]float64, hierarchyDim)
	vec := make([]float64, hierarchyDim)
	var weight float64
	for c := lo; c < hi; c++ {
		w := synthUpload(c, vec)
		for j, v := range vec {
			sum[j] += w * v
		}
		weight += w
	}
	return sum, weight
}

// foldMean is foldSum normalized: the flat server's weighted mean.
func foldMean(lo, hi int) []float64 {
	sum, weight := foldSum(lo, hi)
	for j := range sum {
		sum[j] /= weight
	}
	return sum
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		d /= m
	}
	return d
}

// retainedHeap measures the heap bytes build's result keeps alive: HeapAlloc
// delta across the build with a full GC on both sides, so transient garbage
// does not count.
func retainedHeap(build func() (any, error)) (int64, error) {
	var m0, m1 runtime.MemStats
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

// exactShardHeap builds one exact-mode leaf partial over a shard of the
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

// compactShardHeap folds the same shard into a compact partial — a single
// running sum — and returns its retained bytes.
func compactShardHeap(shardSize int) (int64, error) {
	return retainedHeap(func() (any, error) {
		sum, weight := foldSum(0, shardSize)
		p := &engine.Partial{Shard: 0, Compact: true,
			Sum: &engine.Payload{Params: sum}, Weight: weight, Count: shardSize}
		return p, nil
	})
}

// estimateTierBytes prices the scale leg's tier traffic by encoding
// representative envelopes at the given shard shape: one compact digest per
// shard upward, one assignment and one round close per shard downward.
func estimateTierBytes(shards, shardSize int) (up, down int64) {
	sum, weight := foldSum(0, shardSize)
	d := transport.ShardDigest{Round: 0, Shard: 0, HasSum: true,
		Sum:    transport.PayloadToWire(&engine.Payload{Params: sum}),
		Weight: weight, Count: shardSize, Heard: shardSize}
	if payload, err := transport.Encode(d); err == nil {
		env := transport.Envelope{Kind: transport.KindShardDigest, Payload: payload}
		up = int64(shards) * int64(env.WireSize())
	}
	sa := transport.ShardAssign{Round: 0, Shard: 0, Compact: true,
		Clients: make([]transport.ClientStart, shardSize)}
	for i := range sa.Clients {
		sa.Clients[i] = transport.ClientStart{Client: i}
	}
	if payload, err := transport.Encode(sa); err == nil {
		env := transport.Envelope{Kind: transport.KindShardAssign, Payload: payload}
		down += int64(shards) * int64(env.WireSize())
	}
	se := transport.ShardEnd{Round: 0, Shard: 0,
		End: make([]byte, hierarchyDim*8), HasBroadcast: true}
	if payload, err := transport.Encode(se); err == nil {
		env := transport.Envelope{Kind: transport.KindShardEnd, Payload: payload}
		down += int64(shards) * int64(env.WireSize())
	}
	return up, down
}
