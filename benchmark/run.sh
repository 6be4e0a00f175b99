#!/usr/bin/env bash
# End-to-end RecD benchmark. Builds benchmark/build from source on first
# use, then runs recd_bench. See benchmark/README.md.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run of one workload. The last line of standard output is the
#       JSON result; with --trace 1 it holds the per-layer metrics and the
#       Perfetto trace goes to benchmark/results/traces/.
#   benchmark/run.sh [--workload all] --reps N [--out DIR] [--seed N]
#                    [--seconds S] [--trace 0|1]
#       N passes over every workload, interleaved (w1 w2 w3 w4 w1 ...),
#       one record per run in DIR (default benchmark/results/<time>),
#       then the medians and quartiles. --trace 1 follows each untraced
#       run with a traced one and reports the tracing overhead.
#   benchmark/run.sh --smoke
#       Every workload at tiny sizes with every correctness check, and the
#       printed metric names checked against BENCHMARK.json. Records
#       nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workload=all
seed=1
seconds=15
trace=0
reps=
out=
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

workloads=(train_rm1_dedup train_rm3_lowdup train_rm1_tiered serve_zoo_poisson)
bin=benchmark/build/recd_bench

# Build output goes to stderr: standard output ends with the result.
if [ ! -f benchmark/build/CMakeCache.txt ]; then
  cmake -S benchmark -B benchmark/build -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build benchmark/build -j 4 >&2

if [ "$smoke" = 1 ]; then
  dir=benchmark/build/smoke
  rm -rf "$dir"
  mkdir -p "$dir"
  # Every workload traced (all metrics, tracer and timing series on);
  # serving, the quickest, also untraced for the end-to-end result line.
  for run in "${workloads[@]/%/:1}" serve_zoo_poisson:0; do
    w="${run%:*}"
    t="${run#*:}"
    "$bin" --workload "$w" --seed "$seed" --seconds 1 --trace "$t" --smoke \
      --trace-out "$dir/$w.trace.json" --out "$dir/$w.$t.json" \
      > "$dir/$w.$t.log"
    tail -n 1 "$dir/$w.$t.log" > "$dir/$w.$t.last"
    echo "smoke $w trace $t: ok" >&2
  done
  python3 benchmark/compare.py --check-names "$dir"
  rm -rf "$dir"
  exit 0
fi

if [ "$workload" != all ] && [ -z "$reps" ]; then
  trace_args=()
  if [ "$trace" = 1 ]; then
    trace_args=(--trace-out "benchmark/results/traces/$workload.seed$seed.trace.json")
  fi
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${trace_args[@]}"
fi

[ "$workload" = all ] || workloads=("$workload")
out="${out:-benchmark/results/$(date -u +%Y%m%dT%H%M%SZ)}"
mkdir -p "$out"
for rep in $(seq 1 "${reps:-1}"); do
  for w in "${workloads[@]}"; do
    modes=(0)
    [ "$trace" = 1 ] && modes=(0 1)
    for t in "${modes[@]}"; do
      name="$w.seed$seed.rep$rep.trace$t"
      echo "run $name" >&2
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
        --trace-out "$out/$w.seed$seed.rep$rep.trace.json" \
        --out "$out/$name.json" > "$out/$name.log"
    done
  done
done
python3 benchmark/compare.py "$out"
