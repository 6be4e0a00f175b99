#!/usr/bin/env python3
"""Summarise and compare recd_bench run records (benchmark/README.md).

  compare.py DIR
      Per workload: median, quartiles and run count of every metric,
      correctness, deterministic metrics repeated exactly per seed, and
      the tracing overhead when traced and untraced runs are both present.
  compare.py BASE_DIR NEW_DIR [--same-commit]
      Per (workload, end-to-end metric): both sets' median and quartiles
      and the change, judged against the bounds in BENCHMARK.json. Exits
      1 when NEW is worse than BASE by more than a bound, or with
      --same-commit when the two differ by more than a bound either way.
      With at least ten runs on each side it also applies the gain rule:
      NEW wins at least nine tenths of the pairs and the medians differ by
      more than BASE's interquartile range.
  compare.py --check-names DIR
      Checks that records and result lines in DIR name exactly the
      metrics and units of BENCHMARK.json.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                record = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(record, dict) and "workload" in record:
            records.append(record)
    if not records:
        sys.exit(f"compare.py: no run records in {directory}")
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(records, workload, metric, trace=0):
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def fmt(v):
    return f"{v:.6g}"


def summarize(directory):
    bench = load_benchmark()
    records = load_records(directory)
    ok = True
    workloads = sorted({r["workload"] for r in records})
    for w in workloads:
        runs = [r for r in records if r["workload"] == w]
        bad = [r for r in runs if not r["correct"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {w}: {len(runs)} runs, {len(bad)} incorrect, "
              f"{failed} of {attempted} operations failed")
        for r in bad:
            ok = False
            print(f"   incorrect (seed {r['seed']}): {r['failures']}")
        for trace, defs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            if not values_of(records, w, defs[0]["name"], trace):
                continue
            print(f"   {'metric':42} {'median':>12} {'q1':>12} {'q3':>12}  n")
            for d in defs:
                v = values_of(records, w, d["name"], trace)
                q1, med, q3 = quartiles(v)
                print(f"   {d['name']:42} {fmt(med):>12} {fmt(q1):>12} "
                      f"{fmt(q3):>12}  {len(v)}  {d['unit']}")
        # Deterministic metrics depend on the seed only.
        by_seed = {}
        for r in runs:
            for name in r.get("deterministic", []):
                by_seed.setdefault((r["seed"], name), set()).add(
                    r["metrics"][name]["value"])
        for (seed, name), seen in sorted(by_seed.items()):
            if len(seen) > 1:
                ok = False
                print(f"   NOT DETERMINISTIC: {name} at seed {seed}: "
                      f"{sorted(seen)}")
        plain = values_of(records, w, "throughput_per_s", 0)
        traced = values_of(records, w, "throughput_per_s", 1)
        if plain and traced:
            overhead = statistics.median(plain) / statistics.median(traced)
            print(f"   tracing overhead: {overhead:.3f}x time per unit of "
                  f"work (untraced / traced throughput medians)")
    return 0 if ok else 1


def compare(base_dir, new_dir, same_commit):
    bench = load_benchmark()
    base, new = load_records(base_dir), load_records(new_dir)
    failures = 0
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    print(f"{'workload':18} {'metric':18} {'base med [q1,q3]':>32} "
          f"{'new med [q1,q3]':>32} {'better':>8}  verdict")
    for w in workloads:
        for d in bench["end_to_end"]:
            a = values_of(base, w, d["name"])
            b = values_of(new, w, d["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if d["better"] == "lower" else -1
            # Positive = NEW is worse, as a share of BASE's median.
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if worse > d["bound"]:
                verdict = "REGRESSION"
                failures += 1
            elif same_commit and -worse > d["bound"]:
                verdict = "DISAGREE"
                failures += 1
            elif spread > d["bound"] and not (
                    max(b) < min(a) if sign > 0 else min(b) > max(a)):
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "within bound"
            pairs = min(len(a), len(b))
            if pairs >= 10:
                wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
                gain = (wins >= 0.9 * pairs and
                        abs(qb[1] - qa[1]) > qa[2] - qa[0])
                verdict += f"; {wins}/{pairs} pairs won" + (
                    ", GAIN" if gain else ", no gain")
            cell_a = f"{fmt(qa[1])} [{fmt(qa[0])},{fmt(qa[2])}] n={len(a)}"
            cell_b = f"{fmt(qb[1])} [{fmt(qb[0])},{fmt(qb[2])}] n={len(b)}"
            print(f"{w:18} {d['name']:18} {cell_a:>32} {cell_b:>32} "
                  f"{100 * -worse:+7.2f}%  {verdict}")
    return 1 if failures else 0


def check_names(directory):
    bench = load_benchmark()
    e2e = {d["name"]: d["unit"] for d in bench["end_to_end"]}
    layer = {d["name"]: d["unit"] for d in bench["per_layer"]}
    problems = []
    for r in load_records(directory):
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != {**e2e, **layer}:
            problems.append(f"{r['workload']}: record metrics differ from "
                            "BENCHMARK.json")
        if not r["correct"]:
            problems.append(f"{r['workload']}: incorrect: {r['failures']}")
    for path in sorted(glob.glob(os.path.join(directory, "*.last"))):
        with open(path) as f:
            line = json.loads(f.read())
        if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{path}: result keys {sorted(line)}")
            continue
        want = layer if path.endswith(".1.last") else e2e
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != want:
            problems.append(f"{path}: metrics differ from BENCHMARK.json")
        if line["correct"] is not True or line["attempted"] < 1:
            problems.append(f"{path}: correct={line['correct']} "
                            f"attempted={line['attempted']}")
    for p in problems:
        print(f"check-names: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--check-names":
        return check_names(argv[1])
    same_commit = "--same-commit" in argv
    dirs = [a for a in argv if a != "--same-commit"]
    if len(dirs) == 1:
        return summarize(dirs[0])
    if len(dirs) == 2:
        return compare(dirs[0], dirs[1], same_commit)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
