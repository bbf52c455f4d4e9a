#!/bin/sh
# check.sh is the repo's verification gate: build, vet, unit tests, then the
# race detector over every package. CI and `make check` both run this.
set -eu

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

# Every Go file outside the hidden build directories (.bench_build holds a
# copy of a parent checkout) must be gofmt-clean; the leg lists any that is
# not.
echo ">> gofmt -l"
unformatted=$(find . -name '*.go' -not -path './.*/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "$unformatted" >&2
    echo "FAIL: the files above are not gofmt-clean (gofmt -w them)" >&2
    exit 1
fi

# go test -json keeps every test's elapsed time in test-times.jsonl (git-
# ignored); the summary prints what plain go test would, then the tests
# slower than 2 s, for information only. Any failing test or build fails the
# leg.
echo ">> go test ./... (per-test times in test-times.jsonl)"
status=0
go test -json ./... > test-times.jsonl || status=$?
awk -f scripts/testtimes.awk test-times.jsonl test-times.jsonl
if [ "$status" -ne 0 ]; then
    echo "FAIL: go test ./... exited $status" >&2
    exit "$status"
fi

echo ">> go test -race ./..."
go test -race ./...

# A policy checkpoint is encoded at the barrier and written by a goroutine
# that overlaps the next round; every save, resume and return joins it first.
# A round trace closing reads the ledger under the recorder's lock while
# client workers, leaves and TCP accept goroutines bill that ledger
# (TestTraceBytesAreLedgerRows). Repeated runs under the race detector give
# both handoffs the interleavings one pass might miss.
echo ">> go test -race -count=5 -run 'Checkpoint|Resume|TraceBytes' (the background checkpoint write and its joins; trace close vs. ledger billing)"
go test -race -count=5 -run 'Checkpoint|Resume|TraceBytes' ./internal/fl/engine ./internal/distrib .

# Transport buffers move between goroutines: Send borrows its envelope, a Recv
# envelope owns its free-list buffer until Release. Four handoffs race here —
# a pump reading the next frame ahead of its consumer and pushing it straight
# into that consumer's inbox (there is no relay pump between a conn and its
# collector), the collect loop and its ladders releasing a buffer right after
# Decode, the fan-out sending one borrowed envelope to every member, and the
# bus copying each send into a buffer for its receiver. Repeated runs under
# the race detector give them the interleavings one pass might miss; the
# allocation gate in the same leg fails on a missed Release.
echo ">> go test -race -count=5 -run 'Borrow|Release|Alloc' (transport buffer handoffs: pump read-ahead, collect loop, fan-out, bus copy)"
go test -race -count=5 -run 'Borrow|Release|Alloc' ./internal/transport ./internal/distrib

# Params vectors are owned too (internal/transport/frames.go): a client
# returns its decoded global and its upload's vectors once the upload is
# sent, the flat server and the root their uploads' after Aggregate, a leaf
# its uploads' after its digest is encoded — and under float64raw a digest
# forwards each upload's received wire form, whose Params is that same
# vector. Built with -tags poisonrelease, every released frame and vector is
# overwritten with set bits first, so a buffer still read after its release
# hands its reader NaNs or a bad CRC whether or not the list reuses it: the
# goldens, the tree ≡ flat suites, FedAvg, FedProx and FedDF against their
# in-process twins (bus and TCP, flat and 2-shard tree, float64raw and int8,
# async), the forwarded-bytes and tier-bound checks, and the permutation law
# then fail.
echo ">> go test -tags poisonrelease -race -count=3 (released frames and vectors poisoned: goldens, tree, in-process twins, forwarded digests)"
go test -tags poisonrelease -race -count=3 -run 'Borrow|Release|Alloc|Golden|MatchesInProcess|TreeMatchesFlat|TreeCompact|Async|Forward|TraceBytes|Permutation' ./internal/transport ./internal/distrib .

# Every connection's pump pushes into the inbox of the collector that consumes
# it, so an inbox has several producers and is closed only after every one of
# them has exited; a pump that sent on a closed inbox would panic, and one
# that never exits leaks. The leak, goroutine-count, mux, liveness,
# registration and ledger-is-wire tests build and tear down every fabric
# shape; repeated runs under the race detector vary the teardown
# interleavings.
echo ">> go test -race -count=5 -run 'Leak|Goroutine|Mux|Liveness|Registration|LedgerIsWire' ./internal/distrib (inboxes close after their pumps exit)"
go test -race -count=5 -run 'Leak|Goroutine|Mux|Liveness|Registration|LedgerIsWire' ./internal/distrib

# The amd64 legs above run the widest inner loops the CPU has
# (internal/tensor/*_amd64.s: the GEMM column loops and the step's row ops,
# in AVX2 or AVX-512), and the tensor suites compare every narrower set too.
# 32-bit x86 computes float64 in SSE2 with the same roundings and has no
# assembly, so the goldens passing there prove the pure-Go loops still
# reproduce every checked-in byte; vetting for arm64 proves the tree builds
# without the assembly.
echo ">> GOARCH=386 go test -run Golden . (pure-Go loops against the goldens)"
GOARCH=386 go test -count=1 -run Golden .
# internal/nn cannot pick a kernel path, so on amd64 its fusion oracle
# (fused_test.go: fused layer groups == the leaf-by-leaf walk) sees only the
# assembly. Under GOARCH=386 the same tests drive the fused sweeps' pure-Go
# forms, which are the assembly's oracle.
echo ">> GOARCH=386 go test -run Fused ./internal/nn/ (the fused sweeps' pure-Go forms against the leaf walk)"
GOARCH=386 go test -count=1 -run Fused ./internal/nn/
echo ">> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

# Each workload once at full size with the per-layer probes on. The traced
# path drives the algorithm's hooks by hand (bench/probes.go's twin) and reads
# the payloads they returned after later hook calls, which bench/'s own
# shrunk one-round test does not reach. A non-zero exit (an unrecovered panic
# exits 2) or a last line without "correct":true fails the leg; ~7 s each.
traced=$(mktemp)
for w in train_inproc wire_tcp_flat tree_int8_tcp async_ckpt_bus; do
    echo ">> bash bench/run.sh --workload $w --trace 1 --seconds 3 (the traced path at full size)"
    status=0
    bash bench/run.sh --workload "$w" --trace 1 --seconds 3 > "$traced" 2>&1 || status=$?
    result=$(tail -n 1 "$traced")
    case $status:$result in
    0:*'"correct":true'*) ;;
    *)
        tail -n 20 "$traced" >&2
        rm -f "$traced"
        echo "FAIL: the traced $w run exited $status; its last line must report \"correct\":true" >&2
        exit 1
        ;;
    esac
done
rm -f "$traced"

# bench/ is a module of its own (the root ./... does not see it) and the only
# consumer that pins the public surface the benchmark drives: distrib's
# Options/NewService/Service.Run/Close, transport's codec entry points, and the
# engine names its probes call — engine.Of, Runner.BeginRound/Context/
# Participants/Hooks/SetCodec/SetAsync/SaveCheckpoint/ResumeAny, Upload,
# Payload, Partial, NewExactPartial, MergeExact, ArrivalSchedule, AsyncOptions
# (full list in .claude/skills/verify/SKILL.md). An engine refactor may not
# rename them.
echo ">> (cd bench && go vet . && go test .)"
(cd bench && go vet . && go test .)

# Coverage floor for the round engine and the distributed driver: their
# statements must stay >= 80% covered by the merged profile of the suites
# that exercise them (root package + their own). Async buffer selection,
# staleness weighting, and the validation ladder all live here; an uncovered
# branch in either package is where replay divergence hides.
echo ">> coverage floor: engine+distrib >= 80%"
covprof=$(mktemp)
go test -coverpkg=fedpkd/internal/fl/engine,fedpkd/internal/distrib \
    -coverprofile="$covprof" . ./internal/fl/engine/ ./internal/distrib/ > /dev/null
total=$(go tool cover -func="$covprof" | awk 'END { sub(/%/, "", $NF); print $NF }')
rm -f "$covprof"
echo "   engine+distrib merged coverage: ${total}%"
if awk "BEGIN { exit !($total < 80) }"; then
    echo "FAIL: engine+distrib coverage ${total}% is below the 80% floor" >&2
    exit 1
fi

# The service's operator control plane must survive its full command cycle —
# wire registration, pause/ping/save/resume/quit, kill -9, restart from the
# rolling checkpoint with a different population (DESIGN.md §7).
echo ">> sh scripts/serve_smoke.sh"
sh scripts/serve_smoke.sh

# The kernel determinism contract (every path == pure Go, bit for bit, from
# any number of concurrent callers) must hold under real interleaving, so the
# equivalence, property, kernel-path, row-op and NT suites run again with the
# race detector and two scheduler threads — and with them the nn tests that
# stand on those loops (gradient checks, optimizer bit-equality, properties).
echo ">> GOMAXPROCS=2 go test -race ./internal/tensor/ (equivalence + property + kernel paths + row ops + NT + transpose)"
GOMAXPROCS=2 go test -race -count=1 -run 'Equivalence|Property|Aliased|Parallel|Packed|Kernel|RowOps|ReLUInto|LayersReach|Transpose' ./internal/tensor/

# NN's and TN's column tails, zero-group skips and one-row form live in the
# assembly tile (internal/tensor/simd_amd64.s), where the likely defect is a
# shape nobody listed in the grid. The fuzzer picks shapes, operand families
# and caller counts against the pure-Go oracle for a bounded time.
echo ">> go test -fuzz=FuzzKernelPaths -fuzztime=20s ./internal/tensor/ (shapes the grid does not list)"
go test -run XXX -fuzz=FuzzKernelPaths -fuzztime=20s ./internal/tensor/
# The step's fused sweeps — bias with BatchNorm's statistics, BatchNorm's
# apply with the ReLU after it, the residual add with its ReLU, the mask-free
# ReLU gradient, Adam clearing its gradient — live in assembly
# (internal/tensor/rowops_amd64.s) behind optional operands and flags, so the
# fuzzer picks block shapes and operand families for FuzzRowOps the same way.
echo ">> go test -fuzz=FuzzRowOps -fuzztime=20s ./internal/tensor/ (row-op shapes the grid does not list)"
go test -run XXX -fuzz=FuzzRowOps -fuzztime=20s ./internal/tensor/
# The held lane parks after each step's Adam pass and is woken by a forward
# or a post (internal/nn/lane.go); twenty runs of the park and wake tests
# vary where a post or a release lands against the park.
echo ">> GOMAXPROCS=2 go test -race ./internal/nn/ (gradients + bit-equality + properties + fused groups; park and wake, 20 runs)"
GOMAXPROCS=2 go test -race -count=1 -run 'Property|BitEquality|Gradients|BatchNorm|Adam|Fused' ./internal/nn/
GOMAXPROCS=2 go test -race -count=20 -run 'Park|Wake' ./internal/nn/

# Every product runs on its caller, so the kernels' only concurrency is their
# callers': fl.ForEachClient's clients and the nn lane issue products at once,
# sharing operands, the scratch arena and the bᵀ packs the simd dot loops
# read. These suites issue each product from several goroutines at once;
# -cpu 1,2,4 varies how many of them truly overlap.
echo ">> go test -race -cpu 1,2,4 ./internal/tensor/ (concurrent callers)"
go test -race -count=1 -cpu 1,2,4 -run 'ParallelBitIdentical|ConcurrentCallers|ScratchArenaConcurrent' ./internal/tensor/

# The lane (internal/nn/lane.go) must give the inline step's bits with and
# without a second P: at -cpu 1 it must not even start, at -cpu 2 it runs
# the weight gradients and Adam on another goroutine, raced and gated. The
# eval-mode block walks (infer.go) must give the whole-batch forward's bits
# inline, wide on the lane's twin, and inline again while the lane is held.
echo ">> go test -race -cpu 1,2 -run 'Lane|Infer' ./internal/nn/ (lane == inline, blocks == whole batch)"
go test -race -count=3 -cpu 1,2 -run 'Lane|Infer' ./internal/nn/

# Built with -tags schedperturb, every handoff point of the lane — post, join,
# the gate's wait, the park and its re-check, a forward's wake — yields the
# processor at seeded points (internal/nn/perturb_on.go), so the runs reach
# interleavings a free-running schedule rarely takes: a post or an acquire
# landing between the lane's decision to park and its re-check of head. A
# lost wakeup hangs the leg (its -timeout fails it); wrong bits fail it.
echo ">> go test -tags schedperturb -race -cpu 2,4 -run 'Lane|Infer|Fused' ./internal/nn/ (perturbed lane schedules)"
go test -tags schedperturb -race -count=3 -cpu 2,4 -timeout 5m -run 'Lane|Infer|Fused' ./internal/nn/

# Compile-and-run every kernel and training-step benchmark once so
# perf-path-only code (panel kernels at benchmark shapes, scratch arena reuse,
# the nn step timers README points to) cannot rot unnoticed.
echo ">> go test -bench . -benchtime 1x ./internal/tensor/"
go test -run XXX -bench . -benchtime 1x ./internal/tensor/
echo ">> go test -bench . -benchtime 1x ./internal/nn/"
go test -run XXX -bench . -benchtime 1x ./internal/nn/

echo "all checks passed"
