#!/usr/bin/env bash
# Build bench_suite (Release) from this checkout's sources into
# .bench_build/suite, then run it from the checkout root with the
# given arguments (scratch files go to .bench_build/work), e.g.
#
#   bash bench/suite/run.sh --workload fig2-d1 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=.bench_build/suite

generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja > /dev/null; then
    generator=(-G Ninja)
fi
cmake -S bench/suite -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_suite -j 4 >&2

exec "$build/bench_suite" "$@"
