#!/usr/bin/env bash
# Regenerate the golden-artifact regression files under tests/golden/.
#
# Run this after an INTENTIONAL behaviour change makes `ctest -L golden`
# fail, then review the golden diff like any other code change. On an
# unchanged commit, regeneration is byte-identical (the canonical form
# drops the manifest and all wall_ms fields; everything else is a pure
# function of the scenario seed).
#
# The scenarios are the golden_run_* CTest fixtures; their flags live only
# in tests/golden/CMakeLists.txt. This script runs those fixtures and
# canonicalizes each GOLDEN_<name>.json onto the committed
# tests/golden/<name>.golden.json (a new golden starts as an empty file of
# that name).
#
# Usage: tools/regen_goldens.sh [build-dir]   (default: build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$(cd "${1:-$repo_root/build}" && pwd)"
diff_tool="$build_dir/tests/golden/golden_diff"
out_dir="$repo_root/tests/golden"

if [[ ! -x "$build_dir/examples/pet_sim_cli" || ! -x "$diff_tool" ]]; then
  echo "regen_goldens: build pet_sim_cli and golden_diff first:" >&2
  echo "  cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
  exit 1
fi

echo "regen_goldens: running the golden_run_* fixtures..."
(cd "$build_dir" && ctest -R '^golden_run_' --output-on-failure > /dev/null)

for golden in "$out_dir"/*.golden.json; do
  name="$(basename "$golden" .golden.json)"
  "$diff_tool" canon "$build_dir/tests/golden/GOLDEN_${name}.json" > "$golden"
  echo "regen_goldens: wrote tests/golden/$name.golden.json"
done

echo "regen_goldens: done — review with 'git diff tests/golden/'"
