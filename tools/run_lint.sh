#!/usr/bin/env bash
# Build and run pet_lint against the repo. Usage: tools/run_lint.sh [args...]
# Extra args are passed through, e.g.:
#   --list-rules                 print the rule ids
#   src/net/port.cpp ...         lint only these repo-relative files
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${PET_BUILD_DIR:-$root/build}"

if [[ ! -d "$build" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$build" --target pet_lint -j >/dev/null

exec "$build/tools/pet_lint/pet_lint" --root="$root" "$@"
