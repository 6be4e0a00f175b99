#!/usr/bin/env python3
"""Lint checked-in BENCH_*.json files against the docs/BENCHMARKS.md schema.

Every report must carry the context that makes its numbers traceable —
target, commit, date, and a host block with cpu/cores/hardware_threads/
build_type/commit (date and cpu not "unknown", cores not 0) — plus a
non-empty metrics map whose rows each have a numeric "measured" and a
string "unit" (an optional numeric "paper").
Reports that embed an "obs_metrics" registry snapshot block
(docs/BENCHMARKS.md) must give it the obs::MetricsSnapshot::ToJson
shape — a "series" list of {name, labels, kind, value|histogram-stats}
objects and a matching "series_count" — and for the reports listed in
OBS_REQUIRED the block is mandatory. BENCH_serve_scale.json additionally
must carry a complete latency-QPS frontier (every config x load cell
with ordered percentiles) and at least three tuned-lane key groups per
serving policy. BENCH_micro_kernels.json must carry a *_speedup row for
every kernel that keeps an AVX2 body in src/kernels/kernels_simd.cpp
(the evidence for keeping it).
Stale or hand-edited files fail CI here instead of silently shipping
unreproducible numbers.

Usage: validate_bench_json.py [FILE...]   (default: BENCH_*.json in the
repository root, one directory above this script)
"""

import glob
import json
import numbers
import os
import re
import sys

HOST_FIELDS = {
    "cpu": str,
    "cores": numbers.Number,
    "hardware_threads": numbers.Number,
    "build_type": str,
    "commit": str,
}

# Reports scripts/bench.sh regenerates; a missing one means stale or
# never-produced results, which must fail the lint rather than slip
# through the glob (only enforced in default no-argument mode).
REQUIRED_REPORTS = (
    "BENCH_checkpoint.json",
    "BENCH_dist_train.json",
    "BENCH_embstore_tiering.json",
    "BENCH_fig10_reader_breakdown.json",
    "BENCH_micro_kernels.json",
    "BENCH_paper.json",
    "BENCH_serve_scale.json",
    "BENCH_stream_window_sweep.json",
)

# Reports whose harnesses embed a registry snapshot: the block going
# missing means the obs wiring regressed, so its absence fails the lint.
OBS_REQUIRED = (
    "BENCH_dist_train.json",
    "BENCH_serve_scale.json",
)

OBS_KINDS = ("counter", "gauge", "histogram")

# The serve-scale report's latency-QPS frontier: every (config, load)
# cell must carry this full key group, the percentiles must be ordered,
# and each policy must record at least three tuned lanes (its measured
# pick per model). Structural checks only — the perf claims themselves
# are asserted by the bench binary.
FRONTIER_CONFIGS = ("base_default", "recd_default", "base_tuned",
                    "recd_tuned")
FRONTIER_LOADS = ("u40", "u80", "u120", "u180")
FRONTIER_KEYS = ("offered_qps", "achieved_qps", "latency_p50_us",
                 "latency_p95_us", "latency_p99_us", "mean_batch_rows",
                 "request_dedupe_factor")
TUNED_POLICIES = ("base", "recd")
TUNED_LANE_KEYS = ("max_batch_requests", "max_delay_us", "workers",
                   "p99_us")

# Every kernel with an AVX2 body must be priced against the scalar oracle
# in BENCH_micro_kernels.json: kernel name -> the bench row prefix whose
# <prefix>*_speedup metric is its evidence (bench/micro_kernels.cpp).
# A kernel found in kernels_simd.cpp but missing here fails the lint too,
# so a new AVX2 body cannot ship unpriced.
SIMD_SOURCE = os.path.join("src", "kernels", "kernels_simd.cpp")
SIMD_KERNEL_ROWS = {
    "SumPoolGroup": "sum_pool_group",
    "FusedPooledLookup": "fused_lookup_simd_only",
    "ScatterSgdUpdate": "scatter_sgd_update",
    "MatmulABt": "matmul_abt_fwd",
    "MatmulAB": "matmul_ab_bwd_dx",
    "AccumulateOuter": "accumulate_outer_dw",
    "InteractionForward": "interaction_fwd",
    "InteractionBackward": "interaction_bwd",
    "AddRowBias": "add_row_bias",
    "ReluInPlace": "relu_inplace",
    "ReluMask": "relu_mask",
}


def simd_kernels(root):
    """Public AVX2 kernels defined in kernels_simd.cpp (None if absent)."""
    try:
        with open(os.path.join(root, SIMD_SOURCE), encoding="utf-8") as f:
            source = f.read()
    except OSError:
        return None
    return re.findall(r"^RECD_AVX2 void (\w+)\(", source, re.MULTILINE)


def check_micro_kernels(metrics, root):
    """Requires a *_speedup row per AVX2 kernel; returns error strings."""
    kernels = simd_kernels(root)
    if kernels is None:
        return [f"cannot read {SIMD_SOURCE} to list the AVX2 kernels"]
    errors = []
    for kernel in kernels:
        prefix = SIMD_KERNEL_ROWS.get(kernel)
        if prefix is None:
            errors.append(
                f"AVX2 kernel {kernel} has no bench row in SIMD_KERNEL_ROWS")
            continue
        if not any(
            name.startswith(prefix) and name.endswith("_speedup")
            for name in metrics
        ):
            errors.append(
                f"AVX2 kernel {kernel} lacks a {prefix}*_speedup row")
    return errors


def check_serve_scale(metrics):
    """Validates the serve-scale frontier rows; returns error strings."""
    errors = []

    def measured(name):
        row = metrics.get(name)
        if not isinstance(row, dict):
            return None
        value = row.get("measured")
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            return value
        return None

    for config in FRONTIER_CONFIGS:
        for load in FRONTIER_LOADS:
            cell = f"{config}_{load}"
            values = {k: measured(f"{cell}_{k}") for k in FRONTIER_KEYS}
            missing = [k for k, v in values.items() if v is None]
            if missing:
                errors.append(
                    f"frontier cell {cell} lacks numeric {missing}")
                continue
            p50, p95, p99 = (values["latency_p50_us"],
                             values["latency_p95_us"],
                             values["latency_p99_us"])
            if not p50 <= p95 <= p99:
                errors.append(
                    f"frontier cell {cell} percentiles out of order: "
                    f"p50={p50} p95={p95} p99={p99}")

    for policy in TUNED_POLICIES:
        lanes = 0
        while all(
            measured(f"tuned_{policy}_m{lanes}_{k}") is not None
            for k in TUNED_LANE_KEYS
        ):
            lanes += 1
        if lanes < 3:
            errors.append(
                f"only {lanes} fully-recorded tuned_{policy}_m<N>_* lane "
                f"groups; need >= 3 (keys {TUNED_LANE_KEYS})")
    return errors


def check_obs_metrics(doc, required):
    """Validates an embedded obs_metrics block; returns error strings."""
    block = doc.get("obs_metrics")
    if block is None:
        if required:
            return ['missing required "obs_metrics" snapshot block']
        return []
    if not isinstance(block, dict):
        return ['"obs_metrics" is not an object']
    errors = []
    series = block.get("series")
    if not isinstance(series, list) or not series:
        return ['"obs_metrics" lacks a non-empty "series" list']
    if block.get("series_count") != len(series):
        errors.append('"obs_metrics" series_count disagrees with "series"')
    for i, entry in enumerate(series):
        where = f'obs_metrics series[{i}]'
        if not isinstance(entry, dict):
            errors.append(f"{where} is not an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f'{where} lacks a non-empty string "name"')
        labels = entry.get("labels")
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()
        ):
            errors.append(f'{where} lacks a string-to-string "labels" map')
        kind = entry.get("kind")
        if kind not in OBS_KINDS:
            errors.append(f'{where} has kind {kind!r}, want one of {OBS_KINDS}')
            continue
        numeric_keys = (
            ("count", "mean", "min", "max", "p50", "p99")
            if kind == "histogram"
            else ("value",)
        )
        for key in numeric_keys:
            value = entry.get(key)
            if not isinstance(value, numbers.Number) or isinstance(value, bool):
                errors.append(f'{where} ({kind}) lacks numeric "{key}"')
    return errors


def check_file(path):
    """Returns (errors, metric_count) for one report."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"], 0

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], 0

    for key in ("target", "commit", "date"):
        value = doc.get(key)
        if not isinstance(value, str) or not value:
            errors.append(f'missing or empty string field "{key}"')

    host = doc.get("host")
    if not isinstance(host, dict):
        errors.append('missing "host" context block')
    else:
        for key, kind in HOST_FIELDS.items():
            value = host.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                errors.append(f'host block missing or mistyped "{key}"')
            elif kind is str and not value:
                errors.append(f'host block has empty "{key}"')
        if host.get("cpu") == "unknown" or host.get("cores") == 0:
            errors.append('host block has "unknown" cpu or 0 cores')
    if doc.get("date") == "unknown":
        errors.append('"date" is "unknown"')

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append('missing or empty "metrics" map')
    else:
        for name, row in metrics.items():
            if not isinstance(row, dict):
                errors.append(f'metric "{name}" is not an object')
                continue
            measured = row.get("measured")
            if not isinstance(measured, numbers.Number) or isinstance(
                measured, bool
            ):
                errors.append(f'metric "{name}" lacks numeric "measured"')
            unit = row.get("unit")
            if not isinstance(unit, str):
                errors.append(f'metric "{name}" lacks string "unit"')
            paper = row.get("paper")
            if paper is not None and (
                not isinstance(paper, numbers.Number) or isinstance(paper, bool)
            ):
                errors.append(f'metric "{name}" has non-numeric "paper"')

    required = os.path.basename(path) in OBS_REQUIRED
    errors.extend(check_obs_metrics(doc, required))
    if os.path.basename(path) == "BENCH_serve_scale.json" and isinstance(
        metrics, dict
    ):
        errors.extend(check_serve_scale(metrics))
    if os.path.basename(path) == "BENCH_micro_kernels.json" and isinstance(
        metrics, dict
    ):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        errors.extend(check_micro_kernels(metrics, root))
    return errors, len(metrics) if isinstance(metrics, dict) else 0


def main(argv):
    paths = argv[1:]
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        missing = [
            name
            for name in REQUIRED_REPORTS
            if not os.path.exists(os.path.join(root, name))
        ]
        if missing:
            for name in missing:
                print(f"{name}: required report is missing", file=sys.stderr)
            print(
                "validate_bench_json: run scripts/bench.sh to regenerate",
                file=sys.stderr,
            )
            return 1
    if not paths:
        print("validate_bench_json: no BENCH_*.json files found",
              file=sys.stderr)
        return 1

    failed = 0
    for path in paths:
        errors, count = check_file(path)
        name = os.path.basename(path)
        if errors:
            failed += 1
            for error in errors:
                print(f"{name}: {error}", file=sys.stderr)
        else:
            print(f"{name}: ok ({count} metrics)")
    if failed:
        print(f"validate_bench_json: {failed}/{len(paths)} file(s) failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
