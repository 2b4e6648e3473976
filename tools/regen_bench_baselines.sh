#!/usr/bin/env bash
# Regenerate the committed bench-gate baselines under bench/baselines/.
#
# Run this after an INTENTIONAL performance change makes `ctest -L benchgate`
# fail, then review the baseline diff like any other code change. Baselines
# are machine-dependent absolute rates, but the gate's tolerance band
# (PET_BENCH_GATE_MIN_RATIO, default 0.30) is wide enough that any box of
# the same hardware class passes; the gate exists to catch order-of-magnitude
# cliffs, not scheduling jitter.
#
# Usage: tools/regen_bench_baselines.sh [build-dir]   (default: build)
#
# The bench list, --benchmark_min_time and --benchmark_repetitions below
# MUST stay in sync with the pet_add_bench_gate() calls in
# bench/CMakeLists.txt, which run the same suites in CI.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="$repo_root/bench/baselines"
min_time=0.05
repetitions=3

mkdir -p "$out_dir"
for name in micro_sim micro_net micro_rl; do
  bin="$build_dir/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "regen_bench_baselines: build the benches first:" >&2
    echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
  fi
  echo "regen_bench_baselines: running $name..."
  "$bin" --benchmark_min_time=$min_time \
         --benchmark_repetitions=$repetitions \
         --artifact="$out_dir/BENCH_$name.json" > /dev/null
  echo "regen_bench_baselines: wrote bench/baselines/BENCH_$name.json"
done

echo "regen_bench_baselines: done — review with 'git diff bench/baselines/'"
