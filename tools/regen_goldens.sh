#!/usr/bin/env bash
# Regenerate the golden-artifact regression files under tests/golden/.
#
# Run this after an INTENTIONAL behaviour change makes `ctest -L golden`
# fail, then review the golden diff like any other code change. On an
# unchanged commit, regeneration is byte-identical (the canonical form
# drops the manifest and all wall_ms fields; everything else is a pure
# function of the scenario seed).
#
# Usage: tools/regen_goldens.sh [build-dir]   (default: build)
#
# The scenario flags below MUST stay in sync with
# tests/golden/CMakeLists.txt, which runs the same scenarios in CI.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
cli="$build_dir/examples/pet_sim_cli"
diff_tool="$build_dir/tests/golden/golden_diff"
out_dir="$repo_root/tests/golden"

if [[ ! -x "$cli" || ! -x "$diff_tool" ]]; then
  echo "regen_goldens: build pet_sim_cli and golden_diff first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
  exit 1
fi

regen() {
  local name="$1"
  shift
  local tmp
  tmp="$(mktemp "${TMPDIR:-/tmp}/pet-golden-${name}-XXXXXX.json")"
  echo "regen_goldens: running scenario '$name'..."
  "$cli" "$@" --artifact="$tmp" > /dev/null
  "$diff_tool" canon "$tmp" > "$out_dir/$name.golden.json"
  rm -f "$tmp"
  echo "regen_goldens: wrote tests/golden/$name.golden.json"
}

regen secn1_tiny \
  --scheme=secn1 --workload=websearch --load=0.5 \
  --spines=1 --leaves=2 --hosts-per-leaf=2 \
  --pretrain-ms=1 --measure-ms=2 --seed=7

regen pet_tiny \
  --scheme=pet --workload=datamining --load=0.5 \
  --spines=1 --leaves=2 --hosts-per-leaf=2 \
  --pretrain-ms=2 --measure-ms=2 --seed=11 --no-pretrain-cache

regen acc_tiny \
  --scheme=acc --workload=websearch --load=0.5 \
  --spines=1 --leaves=2 --hosts-per-leaf=2 \
  --pretrain-ms=25 --measure-ms=2 --seed=17 --no-pretrain-cache

regen fat_tree_tiny \
  --scheme=secn1 --workload=websearch --load=0.5 \
  --topo=fat-tree --k=4 --hosts-per-edge=1 \
  --pretrain-ms=1 --measure-ms=2 --seed=7

regen inter_dc_tiny \
  --scheme=pet --workload=datamining --load=0.5 \
  --topo=inter-dc --spines=1 --leaves=1 --hosts-per-leaf=2 \
  --border-links=2 --wan-delay-us=10 \
  --pretrain-ms=1 --measure-ms=2 --seed=13 --no-pretrain-cache

# Committed with fp64 serving; CI also replays it with --infer=fp32 and
# diffs against the SAME golden (the serving-parity contract).
regen pet_serve_tiny \
  --scheme=pet --workload=datamining --load=0.5 \
  --spines=1 --leaves=2 --hosts-per-leaf=2 \
  --pretrain-ms=2 --measure-ms=2 --seed=11 --no-pretrain-cache \
  --infer=fp64

echo "regen_goldens: done — review with 'git diff tests/golden/'"
