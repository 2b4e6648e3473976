#!/usr/bin/env bash
# Bad command lines exit with exactly 2 (not abort's 134, not a silent 0)
# and name the offending flag or scenario field; an invalid sweep writes no
# point artifact.
#
# Usage: bad_usage.sh <pet_sim_cli> <pet_sweep> <workdir>
set -u

CLI=$1
SWEEP=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"
failed=0

# expect_usage_error <expected stderr substring> <command...>
expect_usage_error() {
  local want=$1
  shift
  "$@" > "$WORK/out.txt" 2> "$WORK/err.txt"
  local status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: exit $status (want 2): $*"
    failed=1
  elif ! grep -qF -- "$want" "$WORK/err.txt"; then
    echo "FAIL: stderr lacks '$want': $*"
    sed 's/^/  | /' "$WORK/err.txt" | head -3
    failed=1
  else
    echo "ok: $* -> 2 ($want)"
  fi
}

expect_usage_error "--seed" "$CLI" --seed=abc --load=0.5x
expect_usage_error "--k" "$CLI" --k=abc
expect_usage_error "--load" "$SWEEP" --load=abc --out="$WORK/sweep_abc"
expect_usage_error "scenario.load" "$SWEEP" --load=1.5 --scheme=secn1 \
  --out="$WORK/sweep_high"
expect_usage_error "scenario.load" "$CLI" --load=1.5 --train-episodes=1

for dir in "$WORK/sweep_abc" "$WORK/sweep_high"; do
  if ls "$dir"/point_*.json > /dev/null 2>&1; then
    echo "FAIL: invalid sweep wrote a point artifact in $dir"
    failed=1
  fi
done

"$CLI" --help > "$WORK/help.txt" 2>&1
status=$?
if [ "$status" -ne 0 ] || ! grep -q -- "--hosts-per-leaf=N" "$WORK/help.txt"; then
  echo "FAIL: --help exit $status or usage incomplete"
  failed=1
fi

[ "$failed" -eq 0 ] && echo "PASS"
exit "$failed"
