#!/usr/bin/env bash
# bench_suite_smoke: the metric table matches BENCHMARK.json, and every
# workload, at 1/50 length with one rep, passes its correctness gate and
# prints a result line that follows the schema, untraced and traced.
#
#   bash smoke.sh path/to/bench_suite path/to/BENCHMARK.json
set -euo pipefail

bin="$1"
bench_json="$2"
work="bench_suite_smoke.work"
rm -rf "$work"
mkdir -p "$work"

"$bin" --check "$bench_json"

for workload in fig2-d1 bussoc-d32 bigcore-par-faults svc-mix; do
    for trace in 0 1; do
        log="$work/$workload.trace$trace.log"
        "$bin" --workload "$workload" --seed 1 --seconds 1 \
            --trace "$trace" --smoke --work-dir "$work" \
            --chrome "$work/$workload.trace.json" > "$log"
        "$bin" --check "$bench_json" --result "$log" --trace "$trace"
        echo "ok $workload trace=$trace"
    done
done
rm -rf "$work"
