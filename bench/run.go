package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"fedpkd/internal/expt"
	"fedpkd/internal/obs"
)

// runConfig is one child invocation: a workload, a seed, a time budget and
// whether the layer trace is taken.
type runConfig struct {
	Workload *workload
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string // where the traced run writes trace-<workload>.jsonl

	// MinEpisodes is the fewest episodes a run plays whatever the clock
	// says, so every seed slot is seen once and the quality numbers repeat;
	// ProbeBudget is how long one probe repeats its call; TwinRounds is how
	// many rounds the hand-driven twin plays. The unit test shrinks all
	// three.
	MinEpisodes int
	ProbeBudget time.Duration
	TwinRounds  int
}

// result is a child's outcome: the metrics the contract names plus what the
// ledger needs to pool repeats and compare them.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metricValues

	Episodes       int
	RoundMS        []float64         // every timed round, pooled
	Digests        map[string]string // episode seed → history+ledger digest
	RoundsToTarget int
	ReferenceAcc   []float64 // the reference seed's tracked accuracy, round by round
	Failures       []string
}

// runWorkload plays one run and returns its metrics: the end-to-end set
// from untraced episodes, or the per-layer set from a traced run.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	if cfg.Trace {
		return runTraced(ctx, cfg)
	}
	return runUntraced(ctx, cfg)
}

// playEpisodes runs episodes back to back — closed loop, one at a time, a
// round starting when the previous one completes — in groups of group
// episodes, until the budget is spent, and at least min groups. tracedAt
// says which episodes carry a recorder.
func playEpisodes(ctx context.Context, cfg runConfig, budget float64, min, group int, seedOf func(int) uint64, tracedAt func(int) bool) ([]*episode, error) {
	start := time.Now()
	var eps []*episode
	var last float64
	for g := 0; ; g++ {
		elapsed := time.Since(start).Seconds()
		// Stop where another group would overshoot the budget by more than
		// it undershoots now, so runs centre on the budget.
		if g >= min && elapsed+last/2 > budget {
			break
		}
		for e := g * group; e < (g+1)*group; e++ {
			ep, err := runEpisode(ctx, cfg.Workload, seedOf(e), tracedAt(e))
			if err != nil {
				return eps, fmt.Errorf("episode %d (seed %d): %w", e, seedOf(e), err)
			}
			eps = append(eps, ep)
		}
		last = time.Since(start).Seconds() - elapsed
	}
	return eps, nil
}

// audit checks what the episodes computed and counts failed rounds: a round
// fails if its episode errored (the caller counts those), was degraded,
// tripped a robustness counter, or belongs to an episode whose history or
// ledger differs from an earlier episode of the same seed; the reference
// episode's rounds fail if it misses the target or ends under the floor.
func audit(w *workload, eps []*episode, res *result) {
	res.Digests = make(map[string]string)
	for i, ep := range eps {
		res.Attempted += ep.rounds()
		key := fmt.Sprint(ep.Seed)
		switch first, seen := res.Digests[key]; {
		case !seen:
			res.Digests[key] = ep.Digest
		case first != ep.Digest:
			res.Failed += ep.rounds()
			res.Failures = append(res.Failures, fmt.Sprintf("episode %d: seed %d replayed to digest %s, first was %s", i, ep.Seed, ep.Digest, first))
			continue
		}
		if n := ep.Degraded + ep.Robust; n > 0 {
			if n > ep.rounds() {
				n = ep.rounds()
			}
			res.Failed += n
			res.Failures = append(res.Failures, fmt.Sprintf("episode %d: %d degraded rounds, %d robustness events with no chaos configured", i, ep.Degraded, ep.Robust))
		}
	}
	ref := eps[0]
	res.ReferenceAcc = ref.Acc
	for t, a := range ref.Acc {
		if a >= w.Target {
			res.RoundsToTarget = t + 1
			break
		}
	}
	final := ref.Acc[len(ref.Acc)-1]
	switch {
	case res.RoundsToTarget == 0:
		res.Failed += ref.rounds()
		res.Failures = append(res.Failures, fmt.Sprintf("reference seed never reached target %.3f (best %.3f)", w.Target, slices.Max(ref.Acc)))
	case final < w.Floor:
		res.Failed += ref.rounds()
		res.Failures = append(res.Failures, fmt.Sprintf("reference seed ended at %.3f, under the floor %.3f", final, w.Floor))
	}
	res.Episodes = len(eps)
	res.Correct = res.Failed == 0
}

func runUntraced(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.Workload
	seedOf := func(e int) uint64 { return episodeSeed(cfg.Seed, e) }
	eps, err := playEpisodes(ctx, cfg, cfg.Seconds, cfg.MinEpisodes, 1, seedOf, func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metricValues{}}
	audit(w, eps, res)

	var wall, cpu, alloc, rounds float64
	var setupS []float64
	for _, ep := range eps {
		setupS = append(setupS, ep.SetupS)
		res.RoundMS = append(res.RoundMS, ep.RoundMS...)
		wall += ep.WallS
		cpu += ep.CPUS
		alloc += ep.AllocMB
		rounds += float64(len(ep.RoundMS))
	}
	sorted := sortedCopy(res.RoundMS)
	m := res.Metrics
	m["setup_s"] = median(setupS)
	m["rounds_per_s"] = rounds / wall
	m["round_ms_p50"] = quantile(sorted, 0.5)
	m["round_ms_p90"] = quantile(sorted, 0.9)
	m["cpu_s_per_round"] = cpu / rounds
	m["alloc_mb_per_round"] = alloc / rounds
	m["peak_rss_mb"] = peakRSSMB()

	// The quality numbers come from the first pass over the seed slots, so
	// they do not depend on how many episodes the clock allowed.
	var wire, wireRounds float64
	for _, ep := range eps[:min(len(eps), seedSlots)] {
		for _, r := range ep.Traffic[w.Warmup:] {
			wire += float64(wireBytes(r))
			wireRounds++
		}
	}
	m["wire_kb_per_round"] = wire / wireRounds / 1024
	ref := eps[0]
	m["final_acc"] = ref.Acc[len(ref.Acc)-1]
	// Time to target: the round the reference seed first reaches the target
	// in, clocked as the median over episodes of that round's closing time
	// measured from round 0's opening. A miss reports the whole episode.
	at := res.RoundsToTarget
	if at == 0 {
		at = ref.rounds()
	}
	var toTarget []float64
	for _, ep := range eps {
		toTarget = append(toTarget, ep.RoundEndS[at-1])
	}
	m["time_to_target_s"] = median(toTarget)
	return res, nil
}

// runTraced takes the layer trace. It spends most of the budget on pairs of
// episodes of one seed, one plain and one with an obs.Recorder attached, so
// the recorder's phases and its own overhead are read on the same inputs;
// then it drives the twin by hand and runs the layer probes.
func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.Workload
	tr := newTracer()
	seedOf := func(e int) uint64 { return episodeSeed(cfg.Seed, e/2) }
	// Pairs alternate which side goes first, so neither always inherits the
	// other's warm caches.
	tracedAt := func(e int) bool { return e%4 == 1 || e%4 == 2 }
	eps, err := playEpisodes(ctx, cfg, 0.6*cfg.Seconds, 1, 2, seedOf, tracedAt)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: metricValues{}}
	audit(w, eps, res)
	m := res.Metrics

	var plain, traced rate
	var rounds, gcPause, mallocs, cpu, wall float64
	phases := map[string]float64{}
	var batches, kernelOps, parCalls, serCalls, matAllocs, scratchMiss float64
	var retries, stale, dups float64
	for i, ep := range eps {
		if !ep.Traced {
			plain.add(ep)
			continue
		}
		traced.add(ep)
		res.RoundMS = append(res.RoundMS, ep.RoundMS...)
		rounds += float64(len(ep.RoundMS))
		gcPause += ep.GCPauseMS
		mallocs += ep.Mallocs
		cpu += ep.CPUS
		wall += ep.WallS
		if ep.HeapPeakMB > m["runtime.heap_inuse_mb_peak"] {
			m["runtime.heap_inuse_mb_peak"] = ep.HeapPeakMB
		}
		if mx := slices.Max(ep.RoundMS); mx > m["distrib.round_ms_max"] {
			m["distrib.round_ms_max"] = mx
		}
		m["distrib.degraded_rounds"] += float64(ep.Degraded)
		for k, rt := range ep.RoundTraces {
			for phase, ns := range rt.PhaseNS {
				phases[phase] += float64(ns) / 1e6
			}
			batches += float64(rt.Batches)
			kernelOps += float64(rt.KernelOps)
			parCalls += float64(rt.KernelParallelCalls)
			serCalls += float64(rt.KernelSerialCalls)
			matAllocs += float64(rt.KernelMatrixAllocs)
			scratchMiss += float64(rt.KernelScratchMisses)
			if rb := rt.Robustness; rb != nil {
				retries += float64(rb.Retries + rb.DigestRetries)
				stale += float64(rb.StaleDropped)
				dups += float64(rb.DupDropped + rb.DigestDups)
			}
			recordRoundSpans(tr, w, i, k, ep, rt)
		}
	}
	perRound := func(v float64) float64 { return v / rounds }
	m["obs.overhead_share"] = 1 - traced.perSecond()/plain.perSecond()
	m["runtime.gc_pause_ms_per_round"] = perRound(gcPause)
	m["runtime.mallocs_per_round"] = perRound(mallocs)
	m["distrib.cpu_util"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	m["distrib.retries"], m["distrib.stale_dropped"], m["distrib.dup_dropped"] = retries, stale, dups

	m["tensor.kernel_mops_per_round"] = perRound(kernelOps) / 1e6
	m["tensor.scratch_misses_per_round"] = perRound(scratchMiss)
	m["tensor.matrix_allocs_per_round"] = perRound(matAllocs)
	if calls := parCalls + serCalls; calls > 0 {
		m["tensor.parallel_call_share"] = parCalls / calls
	}
	m["fl.client_train_busy_ms"] = perRound(phases[obs.PhaseClientTrain])
	m["fl.client_public_busy_ms"] = perRound(phases[obs.PhaseClientPublic])
	m["fl.batches_per_round"] = perRound(batches)
	if w.Algo == expt.AlgoFedPKD {
		m["core.aggregate_ms"] = perRound(phases[obs.PhaseAggregate])
		m["core.filter_ms"] = perRound(phases[obs.PhaseFilter])
		m["core.server_train_ms"] = perRound(phases[obs.PhaseServerTrain])
	}
	m["engine.eval_ms"] = perRound(phases[obs.PhaseEval])
	m["ckpt.phase_ms"] = perRound(phases[obs.PhaseCheckpoint])
	m["distrib.leaf_reduce_ms"] = perRound(phases[obs.PhaseLeafReduce])
	m["distrib.root_merge_ms"] = perRound(phases[obs.PhaseRootMerge])

	// Counters of the reference seed: exact, so they repeat between runs.
	ref := eps[0]
	m["engine.rounds_to_target"] = float64(res.RoundsToTarget)
	var up, down, control, tier, rawBytes float64
	for _, r := range ref.Traffic[w.Warmup:] {
		up += float64(r.Upload)
		down += float64(r.Download)
		control += float64(r.Control)
		tier += float64(r.TierUp + r.TierDown)
		rawBytes += float64(r.RawUpload + r.RawDownload)
	}
	n := float64(w.Rounds)
	m["comm.upload_kb_per_round"] = up / n / 1024
	m["comm.download_kb_per_round"] = down / n / 1024
	m["comm.control_kb_per_round"] = control / n / 1024
	m["comm.tier_kb_per_round"] = tier / n / 1024
	m["comm.raw_over_wire"] = 1
	if rawBytes > 0 {
		m["comm.raw_over_wire"] = rawBytes / (up + down)
	}
	var staleness, contributions float64
	for _, f := range ref.Flushes {
		if f.Flush < w.Warmup {
			continue
		}
		for _, s := range f.Staleness {
			staleness += float64(s)
			contributions++
		}
	}
	if contributions > 0 {
		m["engine.async_staleness_mean"] = staleness / contributions
	}
	var envBuild, fabricUp, teardown []float64
	for _, ep := range eps {
		envBuild = append(envBuild, ep.EnvBuildMS)
		fabricUp = append(fabricUp, ep.FabricUpMS)
		teardown = append(teardown, ep.TeardownMS)
	}
	m["fl.env_build_ms"] = median(envBuild)
	m["distrib.fabric_up_ms"] = median(fabricUp)
	m["distrib.teardown_ms"] = median(teardown)

	tw, err := driveTwin(w, cfg.TwinRounds, tr)
	if err != nil {
		return nil, err
	}
	p := &prober{budget: cfg.ProbeBudget, tr: tr, trace: w.Name + "/probe"}
	if err := probeLayers(w, tw, p, m); err != nil {
		return nil, err
	}

	// What the recorder's phases and the probed wire cost leave unexplained
	// of the process's CPU. The wire cost of a round is estimated from the
	// upload path's probes, doubled when the round also moves payloads down.
	wireMS := (m["transport.to_wire_us_per_upload"] + m["transport.gob_encode_us_per_upload"] +
		m["transport.gob_decode_us_per_upload"] + m["transport.validate_us_per_upload"] +
		m["transport.from_wire_us_per_upload"]) * float64(w.Clients) / 1e3
	if down > 0 {
		wireMS *= 2
	}
	var phaseMS float64
	for _, ms := range phases {
		phaseMS += ms
	}
	m["distrib.unattributed_share"] = 1 - (perRound(phaseMS)+wireMS)/(perRound(cpu)*1e3)

	if cfg.OutDir != "" {
		if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rate pools timed rounds and their wall over episodes.
type rate struct{ rounds, wallS float64 }

func (r *rate) add(ep *episode) {
	r.rounds += float64(len(ep.RoundMS))
	r.wallS += ep.WallS
}

func (r *rate) perSecond() float64 { return r.rounds / r.wallS }

// phaseLayer maps the recorder's phase names to the module that does the
// work.
func phaseLayer(w *workload, phase string) string {
	switch phase {
	case obs.PhaseClientTrain, obs.PhaseClientPublic:
		return "fl"
	case obs.PhaseEval:
		return "engine"
	case obs.PhaseCheckpoint:
		return "ckpt"
	case obs.PhaseLeafReduce, obs.PhaseRootMerge:
		return "distrib"
	}
	return w.hookLayer()
}

// recordRoundSpans turns one traced round into spans: the round, as seen
// between two barriers, is the root; each recorder phase is a child laid at
// the round's opening with the phase's summed busy time as its length (the
// recorder keeps durations, not start times).
func recordRoundSpans(tr *tracer, w *workload, episode, k int, ep *episode, rt obs.RoundTrace) {
	t := w.Warmup + k
	trace := fmt.Sprintf("%s/%d/%d", w.Name, episode, t)
	start, end := ep.marks[t], ep.marks[t+1]
	root := tr.add(0, trace, "engine", "round", start, end, int64(rt.Workers), wireBytes(ep.Traffic[t]))
	names := make([]string, 0, len(rt.PhaseNS))
	for phase := range rt.PhaseNS {
		names = append(names, phase)
	}
	sort.Strings(names)
	for _, phase := range names {
		tr.add(root, trace, phaseLayer(w, phase), phase, start, start.Add(time.Duration(rt.PhaseNS[phase])), 1, 0)
	}
}
