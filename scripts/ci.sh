#!/usr/bin/env bash
# CI entry point: the exact sequence .github/workflows/ci.yml runs,
# kept here so every workflow step stays one line and the whole
# pipeline is reproducible locally with `scripts/ci.sh`.
#
# Stages (each is a workflow job; `all` chains them for local runs):
#   core        tier-1 (configure + build + ctest) then the strict
#               (-Werror) preset build
#   sanitizers  ASan over the full suite, TSan over the concurrency
#               suites (check.sh's TSAN_FILTER), every bench target in
#               smoke mode (each bench's built-in bitwise checks: fig8
#               scalar == vectorized, embstore tiered == dense,
#               serve_scale scores equal across fleets), then a traced
#               dist-train smoke run asserting the Chrome trace carries
#               spans for all four exchanges
#   lint        BENCH_*.json schema lint (validate_bench_json.py)
#
# Honors CMAKE_CXX_COMPILER_LAUNCHER (the workflow sets it to ccache),
# and stays plain cmake/ctest otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

stage_core() {
  ./scripts/check.sh
  ./scripts/check.sh --strict
}

stage_sanitizers() {
  ./scripts/check.sh --asan
  ./scripts/check.sh --tsan
  ./scripts/check.sh --smoke
  # End-to-end trace gate on the optimized build --smoke just made: the
  # dist-train bench must emit a loadable Chrome trace with spans for
  # all four exchanges (its own checks already assert obs-on bitwise
  # losses).
  local trace
  trace=$(mktemp /tmp/recd_ci_trace.XXXXXX.json)
  RECD_SMOKE=1 ./build/bench_dist_train --trace "$trace"
  python3 - "$trace" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
need = {"exchange/sdd", "exchange/emb", "exchange/grad",
        "exchange/allreduce", "train/step"}
missing = need - names
assert not missing, f"trace missing spans: {missing}"
print(f"trace ok: {len(events)} events, spans {sorted(names)}")
EOF
  rm -f "$trace"
}

stage_lint() {
  # No arguments: lints every BENCH_*.json in the repo root and fails
  # on required reports that are missing entirely.
  python3 ./scripts/validate_bench_json.py
}

case "${1:-all}" in
  core)       stage_core ;;
  sanitizers) stage_sanitizers ;;
  lint)       stage_lint ;;
  all)
    stage_core
    stage_sanitizers
    stage_lint
    echo "ci.sh: all stages passed"
    ;;
  *)
    echo "usage: $0 [core|sanitizers|lint|all]" >&2
    exit 2
    ;;
esac
