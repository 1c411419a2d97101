#!/usr/bin/env python3
"""Compares serving-benchmark results of two commits, metric by metric.

    python3 bench/serving/compare.py --base A1.json A2.json ... \
        --head B1.json B2.json ... [--benchmark BENCHMARK.json]
    python3 bench/serving/compare.py --self-test

Each file is a result written by `run.py --json` (one workload) or a merged
`--workload all` file.  Runs pair up in the order given, so list them in the
order they ran, alternating sides.  One row per workload and end-to-end
metric of BENCHMARK.json, with the median and quartiles of each side and a
verdict:

  improved    the head wins at least 9 of every 10 pairs and the medians
              differ by more than the base's interquartile distance
  worse       the head's median is worse than the base's by more than the
              metric's bound
  unresolved  the spread of either side is wider than the bound, unless
              every head run reads better than every base run
  unchanged   otherwise

Exits 1 when any row is worse.  Standard library only.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path


def load_results(paths):
    """{workload: [metrics dict per run]} in file order."""
    runs = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for result in data.get("results", [data]):
            runs.setdefault(result["workload"], []).append(result["metrics"])
    return runs


def summary(values):
    """(median, q1, q3); quartiles as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base, head, better, bound):
    """Returns (verdict, head_wins, pairs) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    b_med, b_q1, b_q3 = summary(base)
    h_med, h_q1, h_q3 = summary(head)
    if pairs and wins * 10 >= 9 * len(pairs) and \
            abs(h_med - b_med) > b_q3 - b_q1:
        return "improved", wins, len(pairs)
    scale = abs(b_med) if b_med else 1.0
    spread = max((b_q3 - b_q1) / scale, (h_q3 - h_q1) / scale)
    if spread > bound:
        head_all_better = all(sign * (h - b) > 0 for h in head for b in base)
        return ("unchanged" if head_all_better else "unresolved"), wins, \
            len(pairs)
    worse_by = sign * (b_med - h_med) / scale
    return ("worse" if worse_by > bound else "unchanged"), wins, len(pairs)


def compare(benchmark, base_runs, head_runs):
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in base_runs or workload not in head_runs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [run[name]["value"] for run in base_runs[workload]]
            head = [run[name]["value"] for run in head_runs[workload]]
            result, wins, pairs = verdict(base, head, metric["better"],
                                          metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "base": summary(base), "head": summary(head),
                         "wins": wins, "pairs": pairs, "verdict": result})
    return rows


def print_rows(rows):
    print(f"{'workload':20} {'metric':18} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8} {'wins':>6} verdict")
    for row in rows:
        b, h = row["base"], row["head"]
        change = (h[0] - b[0]) / abs(b[0]) * 100 if b[0] else 0.0
        print(f"{row['workload']:20} {row['metric']:18} "
              f"{b[0]:12.5g} [{b[1]:9.4g}, {b[2]:9.4g}] "
              f"{h[0]:12.5g} [{h[1]:9.4g}, {h[2]:9.4g}] {change:+7.2f}% "
              f"{row['wins']:>2}/{row['pairs']:<3} {row['verdict']}")


def self_test():
    """Synthetic runs whose verdicts are known in advance."""
    rng = random.Random(7)
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "faster", "better": "lower", "bound": 0.1},
            {"name": "same", "better": "lower", "bound": 0.1},
            {"name": "slower", "better": "lower", "bound": 0.1},
            {"name": "noisy", "better": "lower", "bound": 0.05},
            {"name": "more", "better": "higher", "bound": 0.1},
            {"name": "fewer", "better": "higher", "bound": 0.1},
        ],
    }
    shift = {"faster": 0.8, "same": 1.0, "slower": 1.3, "noisy": 1.0,
             "more": 1.3, "fewer": 0.7}
    noise = {"noisy": 0.2}

    def runs(side):
        out = []
        for _ in range(10):
            metrics = {}
            for name, factor in shift.items():
                jitter = rng.uniform(-1, 1) * noise.get(name, 0.01)
                value = 100.0 * (factor if side == "head" else 1.0)
                metrics[name] = {"value": value * (1 + jitter)}
            out.append(metrics)
        return {"w": out}

    rows = compare(benchmark, runs("base"), runs("head"))
    got = {row["metric"]: row["verdict"] for row in rows}
    want = {"faster": "improved", "same": "unchanged", "slower": "worse",
            "noisy": "unresolved", "more": "improved", "fewer": "worse"}
    print_rows(rows)
    if got != want:
        print(f"self-test FAILED: got {got}, want {want}")
        return 1
    assert summary([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.25, 3.75)
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"))
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.error("--base and --head each need at least one result file")
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = compare(benchmark, load_results(args.base),
                   load_results(args.head))
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
