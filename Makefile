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

# fuzz runs the decode fuzzers (transport round messages and their
# no-aliasing premise — a decoded message shares no byte with its input, so a
# receiver may release the buffer it read — comm packed sections, and the checkpoint parsers: the ckpt container and its file-name
# filter, histories, state dicts and prototype sets), the operator-facing
# spec parsers (-chaos, -availability, -population), the control socket's
# command line, and the kernel-path fuzzers (simd inner loops == pure-Go
# kernels and row ops, bit for bit) for a short budget each; raise FUZZTIME
# for deeper exploration.
# The wire decoders start from the checked-in seed corpora under
# testdata/fuzz/; the checkpoint parsers seed from their own encoders.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/transport/ -run=XXX -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport/ -run=XXX -fuzz=FuzzDecodeDoesNotAlias -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/comm/ -run=XXX -fuzz=FuzzDecodeSection -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ckpt/ -run=XXX -fuzz=FuzzRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ckpt/ -run=XXX -fuzz=FuzzParseRoundFileName -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fl/ -run=XXX -fuzz=FuzzDecodeHistory -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/nn/ -run=XXX -fuzz=FuzzDecodeStateDict -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/proto/ -run=XXX -fuzz=FuzzDecodeSet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults/ -run=XXX -fuzz=FuzzParsePlan -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fl/engine/ -run=XXX -fuzz=FuzzParseAvailability -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/distrib/ -run=XXX -fuzz=FuzzParsePopulation -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ctl/ -run=XXX -fuzz=FuzzServeConn -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tensor/ -run=XXX -fuzz=FuzzKernelPaths -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tensor/ -run=XXX -fuzz=FuzzRowOps -fuzztime=$(FUZZTIME)
