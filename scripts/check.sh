#!/usr/bin/env bash
# Tier-1 verify: the exact command sequence from ROADMAP.md, run by CI
# and humans alike (documented in README.md). Fails fast with a
# nonzero exit on the first failing phase — under every flag — and
# prints a phase summary table on the way out.
#
# `check.sh --tsan` instead builds the `tsan` preset (ThreadSanitizer,
# see CMakePresets.json) and runs the tests labeled `tsan` — every test
# executable but the single-threaded suites listed in
# tests/CMakeLists.txt — under the race detector.
#
# `check.sh --asan` builds the `asan` preset (AddressSanitizer) and runs
# the *full* test suite under the memory-error detector.
#
# `check.sh --smoke` builds every bench_* target and runs each with a
# tiny workload (RECD_SMOKE=1, see bench::SmokeOr; Google-Benchmark
# targets get a short --benchmark_min_time instead), so bench bit-rot
# is caught by tier-1-adjacent tooling rather than at bench time. Smoke
# numbers are meaningless as measurements — nothing is written to
# BENCH_*.json.
set -euo pipefail

cd "$(dirname "$0")/.."

PHASE_NAMES=()
PHASE_STATUS=()

print_summary() {
  [ "${#PHASE_NAMES[@]}" -eq 0 ] && return 0
  echo
  echo "== check.sh phase summary =="
  printf '%-28s %s\n' "phase" "status"
  printf '%s\n' "------------------------------------"
  local i
  for i in "${!PHASE_NAMES[@]}"; do
    printf '%-28s %s\n' "${PHASE_NAMES[$i]}" "${PHASE_STATUS[$i]}"
  done
}
trap print_summary EXIT

run_phase() {
  local name=$1
  shift
  PHASE_NAMES+=("$name")
  PHASE_STATUS+=("RUNNING")
  echo "== phase: $name =="
  if "$@"; then
    PHASE_STATUS[${#PHASE_STATUS[@]}-1]="ok"
  else
    local rc=$?
    PHASE_STATUS[${#PHASE_STATUS[@]}-1]="FAIL ($rc)"
    echo "check.sh: phase '$name' failed (exit $rc)" >&2
    exit "$rc"
  fi
}

case "${1:-}" in
  --tsan)
    run_phase "configure (tsan)" cmake --preset tsan
    run_phase "build (tsan)" cmake --build build-tsan -j
    run_phase "ctest (tsan label)" ctest --test-dir build-tsan \
      --output-on-failure -j 2 -L tsan
    ;;
  --asan)
    run_phase "configure (asan)" cmake --preset asan
    run_phase "build (asan)" cmake --build build-asan -j
    run_phase "ctest (asan, full)" ctest --test-dir build-asan \
      --output-on-failure -j 2
    ;;
  --smoke)
    run_phase "configure" cmake -B build -S .
    run_phase "build" cmake --build build -j
    export RECD_SMOKE=1
    smoke_count=0
    for bench in build/bench_*; do
      [ -x "$bench" ] || continue
      smoke_count=$((smoke_count + 1))
      case "$bench" in
        */bench_micro_*)
          run_phase "smoke: ${bench#build/}" \
            "$bench" --benchmark_min_time=0.02 ;;
        *)
          run_phase "smoke: ${bench#build/}" "$bench" ;;
      esac
    done
    if [ "$smoke_count" -eq 0 ]; then
      echo "check.sh: no bench_* binaries in build/ — smoke ran nothing" \
        "(RECD_BUILD_BENCH off?)" >&2
      exit 1
    fi
    echo "smoke: all $smoke_count bench targets ran clean"
    ;;
  --strict)
    run_phase "configure (strict)" cmake --preset strict
    run_phase "build (strict -Werror)" cmake --build build-strict -j
    ;;
  "")
    run_phase "configure" cmake -B build -S .
    run_phase "build" cmake --build build -j
    run_phase "ctest (tier-1)" ctest --test-dir build \
      --output-on-failure -j
    ;;
  *)
    echo "usage: $0 [--tsan|--asan|--smoke|--strict]" >&2
    exit 2
    ;;
esac
