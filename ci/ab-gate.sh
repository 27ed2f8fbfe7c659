#!/usr/bin/env bash
# A/B throughput gate over perfbench (the benchmark BENCHMARK.json declares).
#
#   ci/ab-gate.sh <parent-tree> <change-tree>
#
# Builds perfbench in each tree, each against that tree's own crates,
# then runs PAIRS pairs of short runs per workload, alternating which
# side goes first. Both sides run on the same machine in the same
# minutes, so machine speed cancels out of the change/parent ratio.
#
# Fails when
#   - a change-side run does not end in "correct": true, "failed": 0, or
#   - a workload's median change/parent sim_s_per_s ratio is below
#     THRESHOLD.
# When the two trees carry different perfbench/ sources the sides run
# different benchmarks: the ratios are printed but do not gate.
#
# PAIRS, RUN_SECONDS and THRESHOLD were chosen from 20 A/A trials and
# 10 trials against an injected 2x slowdown (CHANGES.md).
set -euo pipefail

PAIRS=5
RUN_SECONDS=3
THRESHOLD=0.75

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <parent-tree> <change-tree>" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

for tree in "$parent" "$change"; do
    cargo build --release --offline --locked --quiet \
        --manifest-path "$tree/perfbench/Cargo.toml" \
        --target-dir "$tree/perfbench/target"
done

gating=1
if ! diff -rq --exclude=target "$parent/perfbench" "$change/perfbench" >/dev/null; then
    gating=0
    echo "perfbench/ differs between the trees: ratios are advisory"
fi

workloads=$(jq -r '.workloads[].name' "$change/BENCHMARK.json")
if [ -z "$workloads" ]; then
    echo "no workloads in $change/BENCHMARK.json" >&2
    exit 2
fi

# One run; prints its result object, the last line of perfbench's stdout.
# Every workload must exist in both trees' perfbench.
run() {
    "$1/perfbench/target/release/perfbench" --workload "$2" --seconds "$RUN_SECONDS" | tail -n 1
}

failed=0
for workload in $workloads; do
    ratios=()
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            p=$(run "$parent" "$workload")
            c=$(run "$change" "$workload")
            first=parent
        else
            c=$(run "$change" "$workload")
            p=$(run "$parent" "$workload")
            first=change
        fi
        if ! jq -e '.correct == true and .failed == 0' <<<"$c" >/dev/null; then
            echo "::error::$workload pair $pair: the change failed its digests: $c"
            failed=1
        fi
        ps=$(jq -r '.metrics.sim_s_per_s.value' <<<"$p")
        cs=$(jq -r '.metrics.sim_s_per_s.value' <<<"$c")
        ratio=$(awk -v c="$cs" -v p="$ps" 'BEGIN { printf "%.3f", c / p }')
        ratios+=("$ratio")
        echo "$workload pair $pair ($first first): parent $ps change $cs ratio $ratio"
        echo "  parent $p"
        echo "  change $c"
    done
    median=$(printf '%s\n' "${ratios[@]}" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
    echo "$workload median ratio $median (threshold $THRESHOLD)"
    if [ "$gating" -eq 1 ] && awk -v m="$median" -v t="$THRESHOLD" 'BEGIN { exit !(m < t) }'; then
        echo "::error::$workload: median change/parent sim_s_per_s $median is below $THRESHOLD"
        failed=1
    fi
done
exit "$failed"
