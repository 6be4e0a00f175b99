#!/usr/bin/env sh
# Benchmark runner: builds the release preset, runs every reporting bench
# below, and records its BENCH_*.json at the repository root per the
# docs/BENCHMARKS.md convention. Full-pipeline benches take minutes.
set -eu

cd "$(dirname "$0")/.."

cmake --preset release
cmake --build build -j --target bench_paper bench_fig10_reader_breakdown \
  bench_stream_window_sweep bench_dist_train \
  bench_checkpoint bench_micro_kernels bench_embstore_tiering \
  bench_serve_scale

# Commit and build type for the reports (bench::JsonReport reads the host
# itself). The -dirty suffix marks results from uncommitted code.
RECD_BENCH_COMMIT=$(git describe --always --dirty 2>/dev/null || echo unknown)
RECD_BENCH_BUILD_TYPE=Release
export RECD_BENCH_COMMIT RECD_BENCH_BUILD_TYPE

./build/bench_paper --json BENCH_paper.json
./build/bench_fig10_reader_breakdown --json BENCH_fig10_reader_breakdown.json
./build/bench_stream_window_sweep --json BENCH_stream_window_sweep.json
./build/bench_serve_scale --json BENCH_serve_scale.json
./build/bench_dist_train --json BENCH_dist_train.json
./build/bench_checkpoint --json BENCH_checkpoint.json
./build/bench_micro_kernels --json BENCH_micro_kernels.json
./build/bench_embstore_tiering --json BENCH_embstore_tiering.json

# Recorded context must survive into every report (a report without
# host/commit context is unreproducible — fail here, not in CI).
./scripts/validate_bench_json.py

echo "bench.sh: wrote every BENCH_*.json report listed above"
