#!/usr/bin/env bash
# Repo static checks: cmcheck over the tree, and clang-tidy when available.
# Registered as the `run_checks` ctest test, the one ctest entry that runs
# the cmcheck tree pass (the self-test runs in the `cmdeps`/`cmrace`/`cmlife`
# and `*_selftest` entries); also runnable by hand:
#
#   tools/run_checks.sh <cmcheck-bin> <repo-root> [build-dir]
#
# Unlike a `set -e` script, every check always runs: one broken tool does
# not hide the results of the others. Each check's PASS/FAIL/SKIP status is
# collected into a summary table and the script exits non-zero when any
# check failed.
#
# clang-tidy is optional (the CI lint job and local clang installs run it);
# when the binary or the compile database is missing it is SKIPped with a
# note rather than failing, so gcc-only environments stay green.
set -uo pipefail

usage="usage: run_checks.sh <cmcheck-bin> <repo-root> [build-dir]"
CMCHECK_BIN=${1:?${usage}}
ROOT=${2:?${usage}}
BUILD_DIR=${3:-}

names=()
results=()
failed=0

# run <name> <cmd...>: runs the check, records PASS/FAIL, never aborts.
run() {
  local name=$1
  shift
  echo "== ${name} =="
  if "$@"; then
    names+=("${name}")
    results+=(PASS)
  else
    names+=("${name}")
    results+=(FAIL)
    failed=1
  fi
}

skip() {
  local name=$1 why=$2
  echo "== ${name}: skipped (${why}) =="
  names+=("${name}")
  results+=("SKIP (${why})")
}

run "cmcheck tree" "${CMCHECK_BIN}" --root "${ROOT}"

if command -v clang-tidy >/dev/null 2>&1; then
  if [[ -n "${BUILD_DIR}" && -f "${BUILD_DIR}/compile_commands.json" ]]; then
    echo "== clang-tidy (config: ${ROOT}/.clang-tidy) =="
    # Library sources only; headers are covered via HeaderFilterRegex.
    if find "${ROOT}/src" -name '*.cc' -print0 |
      xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "${BUILD_DIR}" --quiet; then
      names+=("clang-tidy")
      results+=(PASS)
    else
      names+=("clang-tidy")
      results+=(FAIL)
      failed=1
    fi
  else
    skip "clang-tidy" "no compile_commands.json; configure with \
CMAKE_EXPORT_COMPILE_COMMANDS=ON and pass the build dir"
  fi
else
  skip "clang-tidy" "not installed"
fi

echo
echo "== run_checks summary =="
for i in "${!names[@]}"; do
  printf '  %-20s %s\n' "${names[$i]}" "${results[$i]}"
done

if [[ ${failed} -ne 0 ]]; then
  echo "run_checks: FAILED"
  exit 1
fi
echo "run_checks: OK"
