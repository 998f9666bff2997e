#!/bin/sh
# Usage: cmctl_convert_faults_test.sh CMCTL WORK_DIR
#
# `cmctl convert --fault-plan` arms the artifact-IO fault injector: under an
# `io:` plan whose every attempt fails, the conversion must exit non-zero
# with the injected error, and a plan entry for any other target is a usage
# error (exit 2).
set -u
cmctl=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

fail() {
  echo "FAIL: $*"
  exit 1
}

"$cmctl" generate --task 2 --scale 0.05 --out "$dir" > "$dir/generate.log" 2>&1 ||
  fail "generate exited $?"

convert() {
  "$cmctl" convert --schema "$dir/schema.tsv" --in "$dir/features.tsv" \
    --out "$dir/features.cmc" "$@" > "$dir/convert.log" 2>&1
}

convert || fail "convert without a plan exited $?"

convert --fault-plan "seed=5; io:transient=1,attempts=1"
status=$?
[ "$status" -ne 0 ] || fail "convert under io:transient=1,attempts=1 exited 0"
grep -q "injected" "$dir/convert.log" ||
  fail "convert did not report the injected error: $(cat "$dir/convert.log")"

convert --fault-plan "keyword_topics:down"
status=$?
[ "$status" -eq 2 ] || fail "convert with a non-io entry exited $status, want 2"

echo "PASS"
