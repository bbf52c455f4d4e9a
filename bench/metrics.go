package main

import (
	"math"
	"sort"
)

// metricDef is one named number of the benchmark. The catalogue below is the
// single source of the names: BENCHMARK.json, the child's JSON result, the
// ledger table and the README glossary all list exactly these.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
	// Source says how a per-layer metric is taken from outside the program:
	// R = obs.Recorder attached in traced episodes, C = a counter read
	// around the run, P = a probe replaying captured payloads through the
	// layer's public functions.
	Source string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; on every other workload the prediction is no change.
	Moves string
}

// endToEnd is what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_round", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_round", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "wire_kb_per_round", Unit: "KB", Better: "lower", Bound: 0.02},
	{Name: "time_to_target_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "final_acc", Unit: "fraction", Better: "higher", Bound: 0.02},
}

// exactMetrics repeat bit for bit between two runs of one seed, so the
// ledger comparison demands equality rather than a bound.
var exactMetrics = map[string]bool{
	"wire_kb_per_round":       true,
	"final_acc":               true,
	"engine.rounds_to_target": true,
}

// perLayer is the outside-in layer trace: one entry per number, grouped by
// the module it accounts for.
var perLayer = []metricDef{
	{Name: "tensor.kernel_mops_per_round", Unit: "Mops", Better: "lower", Source: "C", Moves: "cpu_s_per_round@train_inproc"},
	{Name: "tensor.gemm_nn_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P", Moves: "round_ms_p50@train_inproc"},
	{Name: "tensor.gemm_tn_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P", Moves: "round_ms_p50@train_inproc"},
	{Name: "tensor.gemm_nt_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P", Moves: "round_ms_p50@train_inproc"},
	{Name: "tensor.gemm_nn_128_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P", Moves: "round_ms_p50@train_inproc"},
	{Name: "tensor.gemm_nn_256_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P", Moves: "round_ms_p50@train_inproc"},
	{Name: "tensor.scratch_misses_per_round", Unit: "count", Better: "lower", Source: "R", Moves: "alloc_mb_per_round@all"},
	{Name: "tensor.matrix_allocs_per_round", Unit: "count", Better: "lower", Source: "R", Moves: "alloc_mb_per_round@all"},
	{Name: "tensor.parallel_call_share", Unit: "fraction", Better: "higher", Source: "R", Moves: "cpu_s_per_round,round_ms_p50@train_inproc"},

	{Name: "nn.client_step_us", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,time_to_target_s@train_inproc"},
	{Name: "nn.server_step_us", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,time_to_target_s@train_inproc"},
	{Name: "nn.infer_us_per_sample", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@train_inproc"},

	{Name: "fl.client_train_busy_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "cpu_s_per_round@all"},
	{Name: "fl.client_public_busy_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "cpu_s_per_round@all"},
	{Name: "fl.batches_per_round", Unit: "count", Better: "lower", Source: "R", Moves: "cpu_s_per_round@all"},
	{Name: "fl.env_build_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "setup_s@all"},

	{Name: "core.aggregate_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@train_inproc,tree_int8_tcp"},
	{Name: "core.filter_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@train_inproc,tree_int8_tcp"},
	{Name: "core.server_train_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@train_inproc,tree_int8_tcp"},
	{Name: "core.local_update_ms_p50", Unit: "ms", Better: "lower", Source: "P", Moves: "round_ms_p50@train_inproc,tree_int8_tcp"},
	{Name: "core.digest_ms_p50", Unit: "ms", Better: "lower", Source: "P", Moves: "round_ms_p50@train_inproc,tree_int8_tcp"},
	{Name: "baselines.local_update_ms_p50", Unit: "ms", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat"},
	{Name: "baselines.aggregate_ms", Unit: "ms", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat"},

	{Name: "engine.eval_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@all"},
	{Name: "engine.apply_codec_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@tree_int8_tcp"},
	{Name: "engine.reduce_flat_1k_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat"},
	{Name: "engine.reduce_flat_10k_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat"},
	{Name: "engine.reduce_tree_1k_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@tree_int8_tcp"},
	{Name: "engine.reduce_tree_10k_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@tree_int8_tcp"},
	{Name: "engine.rounds_to_target", Unit: "count", Better: "lower", Source: "C", Moves: "time_to_target_s@all"},
	{Name: "engine.async_staleness_mean", Unit: "count", Better: "lower", Source: "C", Moves: "time_to_target_s@async_ckpt_bus"},

	{Name: "comm.encode_ns_per_value", Unit: "ns", Better: "lower", Source: "P", Moves: "cpu_s_per_round@tree_int8_tcp"},
	{Name: "comm.decode_ns_per_value", Unit: "ns", Better: "lower", Source: "P", Moves: "cpu_s_per_round@tree_int8_tcp"},
	{Name: "comm.upload_kb_per_round", Unit: "KB", Better: "lower", Source: "C", Moves: "wire_kb_per_round@all"},
	{Name: "comm.download_kb_per_round", Unit: "KB", Better: "lower", Source: "C", Moves: "wire_kb_per_round@all"},
	{Name: "comm.control_kb_per_round", Unit: "KB", Better: "lower", Source: "C", Moves: "wire_kb_per_round@wire_tcp_flat,tree_int8_tcp,async_ckpt_bus"},
	{Name: "comm.tier_kb_per_round", Unit: "KB", Better: "lower", Source: "C", Moves: "wire_kb_per_round@tree_int8_tcp"},
	{Name: "comm.raw_over_wire", Unit: "ratio", Better: "higher", Source: "C", Moves: "wire_kb_per_round@tree_int8_tcp"},

	{Name: "transport.to_wire_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.gob_encode_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.gob_decode_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.gob_mb_per_s", Unit: "MB/s", Better: "higher", Source: "P", Moves: "round_ms_p50,cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.validate_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.from_wire_us_per_upload", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50,cpu_s_per_round@wire_tcp_flat"},
	{Name: "transport.conn_rtt_us", Unit: "us", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat,tree_int8_tcp"},
	{Name: "transport.envelope_overhead_bytes", Unit: "bytes", Better: "lower", Source: "P", Moves: "round_ms_p50@wire_tcp_flat"},

	{Name: "distrib.fabric_up_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "setup_s@wire_tcp_flat,tree_int8_tcp,async_ckpt_bus"},
	{Name: "distrib.teardown_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "setup_s@wire_tcp_flat,tree_int8_tcp,async_ckpt_bus"},
	{Name: "distrib.leaf_reduce_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@tree_int8_tcp"},
	{Name: "distrib.root_merge_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@tree_int8_tcp"},
	{Name: "distrib.cpu_util", Unit: "fraction", Better: "higher", Source: "C", Moves: "rounds_per_s@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.unattributed_share", Unit: "fraction", Better: "lower", Source: "C", Moves: "cpu_s_per_round@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.round_ms_max", Unit: "ms", Better: "lower", Source: "C", Moves: "round_ms_p90@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.retries", Unit: "count", Better: "lower", Source: "R", Moves: "rounds_per_s@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.stale_dropped", Unit: "count", Better: "lower", Source: "R", Moves: "rounds_per_s@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.dup_dropped", Unit: "count", Better: "lower", Source: "R", Moves: "rounds_per_s@wire_tcp_flat,tree_int8_tcp"},
	{Name: "distrib.degraded_rounds", Unit: "count", Better: "lower", Source: "C", Moves: "rounds_per_s@wire_tcp_flat,tree_int8_tcp"},

	{Name: "ckpt.save_ms_p50", Unit: "ms", Better: "lower", Source: "P", Moves: "round_ms_p50@async_ckpt_bus"},
	{Name: "ckpt.bytes", Unit: "bytes", Better: "lower", Source: "P", Moves: "round_ms_p50@async_ckpt_bus"},
	{Name: "ckpt.save_mb_per_s", Unit: "MB/s", Better: "higher", Source: "P", Moves: "round_ms_p50@async_ckpt_bus"},
	{Name: "ckpt.resume_ms", Unit: "ms", Better: "lower", Source: "P", Moves: "setup_s@async_ckpt_bus"},
	{Name: "ckpt.phase_ms", Unit: "ms", Better: "lower", Source: "R", Moves: "round_ms_p50@async_ckpt_bus"},

	{Name: "obs.overhead_share", Unit: "fraction", Better: "lower", Source: "C", Moves: "rounds_per_s@all"},

	{Name: "runtime.gc_pause_ms_per_round", Unit: "ms", Better: "lower", Source: "C", Moves: "round_ms_p90@all"},
	{Name: "runtime.mallocs_per_round", Unit: "count", Better: "lower", Source: "C", Moves: "alloc_mb_per_round@all"},
	{Name: "runtime.heap_inuse_mb_peak", Unit: "MB", Better: "lower", Source: "C", Moves: "peak_rss_mb@all"},
}

// metricValues collects measured values by metric name.
type metricValues map[string]float64

// complete fills every catalogue name the run did not measure with zero — a
// layer that does no work on a workload reports no time — and returns the
// names that were measured but are not in the catalogue.
func (m metricValues) complete(defs []metricDef) (unknown []string) {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's acceptance spread is defined.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
