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

echo ">> go test ./..."
go test ./...

echo ">> go test -race ./..."
go test -race ./...

# A policy checkpoint is encoded at the barrier and written by a goroutine
# that overlaps the next round; every save, resume and return joins it first.
# Repeated runs under the race detector give that handoff the interleavings
# one pass might miss.
echo ">> go test -race -count=5 -run 'Checkpoint|Resume' (the background checkpoint write and its joins)"
go test -race -count=5 -run 'Checkpoint|Resume' ./internal/fl/engine ./internal/distrib .

# The amd64 legs above run the widest inner loops the CPU has
# (internal/tensor/*_amd64.s: the GEMM column loops and the step's row ops,
# in AVX2 or AVX-512), and the tensor suites compare every narrower set too.
# 32-bit x86 computes float64 in SSE2 with the same roundings and has no
# assembly, so the goldens passing there prove the pure-Go loops still
# reproduce every checked-in byte; vetting for arm64 proves the tree builds
# without the assembly.
echo ">> GOARCH=386 go test -run Golden . (pure-Go loops against the goldens)"
GOARCH=386 go test -count=1 -run Golden .
echo ">> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

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
echo ">> GOMAXPROCS=2 go test -race ./internal/tensor/ (equivalence + property + kernel paths + row ops + NT)"
GOMAXPROCS=2 go test -race -count=1 -run 'Equivalence|Property|Aliased|Parallel|Packed|Kernel|RowOps|ReLUInto|LayersReach' ./internal/tensor/
echo ">> GOMAXPROCS=2 go test -race ./internal/nn/ (gradients + bit-equality + properties)"
GOMAXPROCS=2 go test -race -count=1 -run 'Property|BitEquality|Gradients|BatchNorm|Adam' ./internal/nn/

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

# Compile-and-run every kernel and training-step benchmark once so
# perf-path-only code (panel kernels at benchmark shapes, scratch arena reuse,
# the nn step timers README points to) cannot rot unnoticed.
echo ">> go test -bench . -benchtime 1x ./internal/tensor/"
go test -run XXX -bench . -benchtime 1x ./internal/tensor/
echo ">> go test -bench . -benchtime 1x ./internal/nn/"
go test -run XXX -bench . -benchtime 1x ./internal/nn/

echo "all checks passed"
