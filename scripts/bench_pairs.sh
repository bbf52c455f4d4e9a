#!/usr/bin/env bash
# bench_pairs.sh — the alternating-pairs protocol of bench/README.md ("Claiming
# a gain later") for one workload: unpack <parent-ref> with git archive, then
# run the repo's benchmark (bash bench/run.sh --workload W --trace 0) on
# the parent and on this checkout <pairs> times, alternating which side goes
# first (parent first, then change first, ...) so host drift cancels. Prints,
# per end-to-end metric: each side's median and quartiles, the change's
# relative difference, and how many pairs the change won (ties count for
# neither side). A gain holds when the change wins >= 9/10 of the pairs and
# the medians differ by more than the parent's own IQR.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10] [seed]
#
# The seed defaults to the clock, i.e. one not used while writing the change;
# it is printed so a run can be repeated. Everything the script writes stays
# under .bench_build/pairs/ (the parent's files, both builds, one result line
# per run). `make bench-pairs` wraps this; it is not part of scripts/check.sh.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10] [seed]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-$(date +%s)}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$root/.bench_build/pairs
parent=$work/parent
runs=$work/runs
rm -rf "$runs" "$parent"
mkdir -p "$runs" "$parent"

git -C "$root" archive "$parent_ref" | tar -x -C "$parent"
if [ ! -f "$parent/bench/run.sh" ]; then
    echo "$parent_ref has no bench/run.sh: the parent must carry the same benchmark" >&2
    exit 1
fi
if ! diff -r -q "$root/bench" "$parent/bench" >/dev/null || ! cmp -s "$root/BENCHMARK.json" "$parent/BENCHMARK.json"; then
    echo "bench/ or BENCHMARK.json differs between $parent_ref and this checkout: both sides must run identical benchmark code" >&2
    exit 1
fi

# run_side <side> <dir> <pair>: one benchmark run; its result line (the last
# line of standard output) lands in runs/<side>.<pair>.json.
run_side() {
    local side=$1 dir=$2 pair=$3 out=$runs/$1.$3.json
    (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0) 2>"$runs/$side.$pair.err" | tail -n 1 >"$out"
    if ! grep -q '"correct":true' "$out" || ! grep -q '"failed":0[,}]' "$out"; then
        echo "pair $pair: $side run failed or was incorrect (see $out, $runs/$side.$pair.err)" >&2
        exit 1
    fi
}

echo "workload $workload, seed $seed, $pairs pairs, parent $parent_ref ($(git -C "$root" rev-parse --short "$parent_ref"))"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run_side parent "$parent" "$i"
        run_side change "$root" "$i"
    else
        run_side change "$root" "$i"
        run_side parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

# value <file> <metric>: the metric's value in one result line.
value() {
    grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*"value"://'
}

# quartiles: reads numbers, prints "median q1 q3" (linear interpolation).
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,    h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

printf '\n%-20s %-6s %-34s %-34s %9s %6s\n' metric better "parent median [q1, q3]" "change median [q1, q3]" change wins
# Metric names and directions come from BENCHMARK.json's end_to_end list.
grep -o '{"name": "[a-z_0-9]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' "$root/BENCHMARK.json" |
    sed 's/{"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/' |
    while read -r metric better; do
        wins=0
        decided=0
        : >"$runs/parent.$metric" >"$runs/change.$metric"
        for ((i = 1; i <= pairs; i++)); do
            p=$(value "$runs/parent.$i.json" "$metric")
            c=$(value "$runs/change.$i.json" "$metric")
            echo "$p" >>"$runs/parent.$metric"
            echo "$c" >>"$runs/change.$metric"
            verdict=$(awk -v p="$p" -v c="$c" -v better="$better" 'BEGIN {
                if (p == c) print "tie"; else if ((better == "lower") == (c < p)) print "win"; else print "loss" }')
            [ "$verdict" = tie ] || decided=$((decided + 1))
            [ "$verdict" = win ] && wins=$((wins + 1))
        done
        read -r pm pq1 pq3 < <(quartiles <"$runs/parent.$metric")
        read -r cm cq1 cq3 < <(quartiles <"$runs/change.$metric")
        rel=$(awk -v p="$pm" -v c="$cm" 'BEGIN { if (p == 0) print "n/a"; else printf "%+.1f%%", 100 * (c - p) / p }')
        printf '%-20s %-6s %-34s %-34s %9s %6s\n' "$metric" "$better" "$pm [$pq1, $pq3]" "$cm [$cq1, $cq3]" "$rel" "$wins/$decided"
    done
