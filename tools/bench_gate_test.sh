#!/usr/bin/env bash
# Checks bench_compare's speedup gate on fixture JSON files: the passing
# fixture (kNN 3.33x at 4 threads) must exit 0 and report the thread count
# it read, the failing one (1.60x) must exit 1 and name the stage below its
# floor, a gated stage with no multi-thread row (label_propagation) must
# exit 1 as missing, and one with two multi-thread rows (2 and 4 threads)
# must exit 1 as ambiguous. Registered as the `bench_compare_speedup_gate`
# ctest test:
#
#   tools/bench_gate_test.sh <bench_compare-binary> <fixture-dir>
set -uo pipefail

COMPARE_BIN=${1:?usage: bench_gate_test.sh <compare-binary> <fixture-dir>}
FIXTURES=${2:?usage: bench_gate_test.sh <compare-binary> <fixture-dir>}
failed=0

# expect <exit-code> <output-pattern> <args...>
expect() {
  local want=$1 pattern=$2
  shift 2
  local out code
  out=$("${COMPARE_BIN}" "$@" 2>&1)
  code=$?
  echo "${out}"
  if [[ ${code} -ne ${want} ]]; then
    echo "FAIL: exit ${code}, want ${want}: bench_compare $*"
    failed=1
  elif ! grep -q -- "${pattern}" <<<"${out}"; then
    echo "FAIL: output lacks '${pattern}': bench_compare $*"
    failed=1
  fi
}

expect 0 "knn_graph_build|n3600 *4 .* 3.33x" --min-speedup knn_graph_build=2 \
  "${FIXTURES}/speedup_pass.json"
expect 1 "knn_graph_build|n3600 .* BELOW FLOOR" \
  --min-speedup knn_graph_build=2 "${FIXTURES}/speedup_fail.json"
expect 1 "label_propagation|n4600 .* MISSING" --min-speedup knn_graph_build=2 \
  --min-speedup label_propagation=1 "${FIXTURES}/speedup_pass.json"
expect 1 "knn_graph_build|n3600 .* AMBIGUOUS" \
  --min-speedup knn_graph_build=2 "${FIXTURES}/speedup_ambiguous.json"
expect 2 "want STAGE=FLOOR" --min-speedup knn_graph_build \
  "${FIXTURES}/speedup_pass.json"

if [[ ${failed} -ne 0 ]]; then
  echo "bench_gate_test: FAIL"
  exit 1
fi
echo "bench_gate_test: OK"
