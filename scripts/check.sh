#!/bin/sh
# check.sh is the repo's verification gate: build, vet, unit tests, then the
# race detector over every package. CI and `make check` both run this.
set -eu

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

echo ">> go test ./..."
go test ./...

echo ">> go test -race ./..."
go test -race ./...

# The amd64 legs above run the AVX2 inner loops (internal/tensor/*_amd64.s:
# the GEMM column loops and the step's row ops) wherever the CPU has them.
# 32-bit x86 computes float64 in SSE2 with the same roundings and has no
# assembly, so the goldens passing there prove the pure-Go loops still
# reproduce every checked-in byte; vetting for arm64 proves the tree builds
# without the assembly.
echo ">> GOARCH=386 go test -run Golden . (pure-Go loops against the goldens)"
GOARCH=386 go test -count=1 -run Golden .
echo ">> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

# bench/ is a module of its own (the root ./... does not see it) and the only
# consumer that pins the public surface the benchmark drives.
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

# Structural invariant of the round-engine refactor: no algorithm owns a
# round loop. The engine's Runner is the only Round() in the tree; algorithm
# packages supply phase hooks exclusively.
echo ">> structural check: no per-algorithm Round() declarations"
if grep -rnE 'func \([^)]*\) Round\(' internal/core/ internal/baselines/; then
    echo "FAIL: algorithm packages must not declare their own Round(); use engine hooks" >&2
    exit 1
fi

# The service's operator control plane must survive its full command cycle —
# wire registration, pause/ping/save/resume/quit, kill -9, restart from the
# rolling checkpoint with a different population (DESIGN.md §12).
echo ">> sh scripts/serve_smoke.sh"
sh scripts/serve_smoke.sh

# Structural invariant of the run-state contract: every nn.Layer and
# nn.Optimizer implementation must declare Snapshot/Restore. New types are
# registered by their compile-time interface assertions (var _ Layer = ...),
# so a type that compiles without the state methods can only exist if someone
# also skipped the assertion — this gate catches exactly that drift.
echo ">> structural check: every nn.Layer/nn.Optimizer has Snapshot and Restore"
types=$(grep -rhoE 'var _ (Layer|Optimizer) = \(\*[A-Za-z0-9_]+\)' internal/nn/*.go \
    | sed -E 's/.*\(\*([A-Za-z0-9_]+)\)/\1/' | sort -u)
for ty in $types; do
    for method in Snapshot Restore; do
        if ! grep -qE "func \([a-zA-Z0-9_]+ \*$ty\) $method\(" internal/nn/*.go; then
            echo "FAIL: nn type $ty lacks $method (run-state contract, DESIGN.md §8)" >&2
            exit 1
        fi
    done
done

# The kernel determinism contract (parallel == serial == pure Go, bit for bit)
# must hold under real interleaving, so the equivalence, property, kernel-path,
# row-op and packed-NT/f32 suites run again with the race detector and two
# scheduler threads forcing the worker pool to actually overlap panels — and
# with them the nn tests that stand on those loops (gradient checks,
# optimizer bit-equality, properties).
echo ">> GOMAXPROCS=2 go test -race ./internal/tensor/ (equivalence + property + kernel paths + row ops + packed)"
GOMAXPROCS=2 go test -race -count=1 -run 'Equivalence|Property|Aliased|Parallel|Packed|F32|Kernel|RowOps|ReLUInto|LayersReach' ./internal/tensor/
echo ">> GOMAXPROCS=2 go test -race ./internal/nn/ (gradients + bit-equality + properties)"
GOMAXPROCS=2 go test -race -count=1 -run 'Property|BitEquality|Gradients|BatchNorm|Adam' ./internal/nn/

# Compile-and-run every kernel benchmark once so perf-path-only code (panel
# kernels at benchmark shapes, scratch arena reuse) cannot rot unnoticed.
echo ">> go test -bench . -benchtime 1x ./internal/tensor/"
go test -run XXX -bench . -benchtime 1x ./internal/tensor/

echo "all checks passed"
