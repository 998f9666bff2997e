#!/bin/sh
# Usage: cmctl_serve_faults_test.sh CMCTL WORK_DIR
#
# `cmctl serve` at its default queue capacity under a `serving:` fault plan
# must shed nothing at admission and print the same `serving fault hook:`
# line on every run: which requests fail is a pure function of the plan, so
# the counts may differ only if admission shedding (timing-dependent) drops
# requests before they reach the hook.
set -u
cmctl=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

fail() {
  echo "FAIL: $*"
  exit 1
}

for run in 1 2 3; do
  "$cmctl" serve --task 2 --scale 0.05 \
    --fault-plan "seed=7; serving:transient=0.2,attempts=3" \
    > "$dir/serve.$run.log" 2>&1 || fail "run $run exited $?"
  grep -q " served, 0 shed, " "$dir/serve.$run.log" ||
    fail "run $run shed requests: $(grep ' served, ' "$dir/serve.$run.log")"
  grep "^serving fault hook:" "$dir/serve.$run.log" > "$dir/hook.$run" ||
    fail "run $run printed no serving fault hook line"
  if [ "$run" -gt 1 ]; then
    cmp -s "$dir/hook.1" "$dir/hook.$run" ||
      fail "fault hook differs: run 1 '$(cat "$dir/hook.1")'," \
        "run $run '$(cat "$dir/hook.$run")'"
  fi
done

echo "PASS: $(cat "$dir/hook.1")"
