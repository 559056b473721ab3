#!/bin/sh
# Every run-flag value validate_run_config() refuses, and every removed
# flag or plan key, exits 2 from both tools before any scene is built, and
# arrangement_explorer refuses a
# pipeline count it cannot parse or place with exit 2 instead of aborting.
#
#   sh tests/cli_exit_codes.sh <sccpipe> <sccpipe_sweep> <arrangement_explorer>
set -u
cli=$1
sweep=$2
explorer=$3
err=$(mktemp)
trap 'rm -f "$err"' EXIT
fail=0

# expect_2 <label> <command...>: exit 2, and no scene/trace build started.
expect_2() {
  label=$1
  shift
  "$@" > /dev/null 2> "$err"
  rc=$?
  if [ "$rc" -ne 2 ] || grep -q "building scene\|scene + trace" "$err"; then
    echo "FAIL: $label exited $rc"
    cat "$err"
    fail=1
  fi
}

for bad in "--offered-fps -5" "--offered-fps 1e-4" \
           "--offered-fps 20 --frame-deadline-ms -3" "--queue-depth -3" \
           "--window -2" "--breaker-threshold -4" "--breaker-cooldown-ms -1" \
           "--rcce-retries -2" "--rcce-timeout-ms 0" "--max-spares -2" \
           "--gray-detect-factor -1" "--heartbeat-ms 2e9" \
           "--fault-plan reorder=0.2" "--fault-plan duplicate=0.2:1ms" \
           "--fault-plan link-down=2;window=0" \
           "--fault-plan host-delay=0.5:1e300ms"; do
  # shellcheck disable=SC2086  # each case is several words
  expect_2 "sccpipe $bad" "$cli" --csv --frames 12 --size 60 $bad
  # shellcheck disable=SC2086
  expect_2 "sccpipe_sweep $bad" "$sweep" --scenarios mcpc --pipelines 2 \
    --frames 12 --size 60 --bench-json none $bad
done
# Run-level crash durability is gone: its three flags and its fault-plan
# key are unknown inputs.
for bad in "--checkpoint-every 5" "--checkpoint-file x" "--resume" \
           "--fault-plan crash-at=1s"; do
  # shellcheck disable=SC2086
  expect_2 "sccpipe $bad" "$cli" --csv --frames 12 --size 60 $bad
  # shellcheck disable=SC2086
  expect_2 "sccpipe_sweep $bad" "$sweep" --scenarios mcpc --pipelines 2 \
    --frames 12 --size 60 --bench-json none $bad
done
expect_2 "sccpipe --fault-seed 3 --rcce-retries -2" "$cli" --csv \
  --frames 12 --size 60 --fault-seed 3 --rcce-retries -2
expect_2 "sccpipe --fault-seed -3" "$cli" --csv --frames 12 --size 60 \
  --fault-seed -3
expect_2 "sccpipe_sweep --jobs -3" "$sweep" --scenarios mcpc --pipelines 2 \
  --frames 12 --size 60 --bench-json none --jobs -3
for k in abc 0 -1 4x 32 9; do
  expect_2 "arrangement_explorer $k" "$explorer" "$k"
done
exit $fail
