GO ?= go

.PHONY: build test race check chaos bench bench-pairs fuzz cover serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the full verification gate: build + vet + test + race.
check:
	sh scripts/check.sh

# cover prints per-package statement coverage. scripts/check.sh separately
# enforces the engine+distrib floor on a merged cross-package profile.
cover:
	$(GO) test -cover ./...

# chaos runs the seeded fault-injection suites under the race detector:
# client-plane crash/drop/dup/corrupt over bus and TCP, and the TestTreeChaos*
# tier suite (leaf crashes, digest faults, shard deadlines, degraded-tree
# rounds with deterministic replay).
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/distrib/

# serve-smoke drives the long-lived service end to end: wire registration,
# the pause/ping/save/resume/quit control plane, a kill -9 mid-experiment,
# and a restart from the rolling checkpoint with a different population.
serve-smoke:
	sh scripts/serve_smoke.sh

# bench runs the repo's one benchmark (BENCHMARK.json): four closed-loop
# workloads, end-to-end and per-layer metrics.
bench:
	bash bench/run.sh

# bench-pairs measures this checkout against PARENT on one WORKLOAD with the
# alternating-pairs protocol a claimed gain needs (bench/README.md): per
# metric, both medians and quartiles and the pairs won. ~80 s per pair.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=wire_tcp_flat PAIRS=10 SEED=123
PARENT ?= HEAD
WORKLOAD ?= wire_tcp_flat
PAIRS ?= 10
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# fuzz runs the decode fuzzers (transport round messages and comm packed
# sections) and the kernel-path fuzzers (simd inner loops == pure-Go kernels
# and row ops, bit for bit) for a short budget each; raise FUZZTIME for deeper
# exploration.
# The decoders start from the checked-in seed corpora under testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/transport/ -run=XXX -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/comm/ -run=XXX -fuzz=FuzzDecodeSection -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tensor/ -run=XXX -fuzz=FuzzKernelPaths -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tensor/ -run=XXX -fuzz=FuzzRowOps -fuzztime=$(FUZZTIME)
