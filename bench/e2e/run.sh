#!/usr/bin/env bash
# Build bench_e2e from this checkout (once; later calls are a no-op build)
# and run it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload cg_1000 --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --quick
#
# Build output goes to stderr, so the last line of stdout is the benchmark's
# JSON record.  The build lives in .bench_build/e2e at the checkout root.
set -euo pipefail

here=$(dirname "${BASH_SOURCE[0]}")
build="$here/../../.bench_build/e2e"
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2
exec "$build/bench_e2e" "$@"
