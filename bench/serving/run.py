#!/usr/bin/env python3
"""Builds the serving benchmark, runs it, and prints one JSON result line.

    python3 bench/serving/run.py --workload NAME --seed S --seconds R \
        --trace 0|1 [--json OUT]
    python3 bench/serving/run.py --workload all [--seed S] [--seconds R] \
        [--trace 0|1] [--json OUT]

Run from the repository root.  The program is built from source with CMake
into $CARGO_TARGET_DIR/serving (default .bench_build/serving); the exact
answers and the large workload's preprocessed snapshot are computed once per
build, before any timing.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with --trace 1.  `--workload all`
runs every workload in its own process, prints one table and writes the
merged results.  Exit codes: 0 ok, 1 a run or check failed, 2 bad usage or
no source tree to build.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures once and builds bench_serving; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("run.py: no TPA source tree at", ROOT)
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_serving", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "bench_serving"


def cache_dir(build_dir, binary):
    """Cache of exact answers and snapshots, keyed by the binary, so a
    rebuilt program never reads state an older one wrote."""
    key = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    root = build_dir / "cache"
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.iterdir():
        if stale.name != key:
            shutil.rmtree(stale, ignore_errors=True)
    return root / key


def prepare(binary, cache, workloads):
    for name in workloads:
        subprocess.run([str(binary), "--prepare", "--workload", name,
                        "--cache-dir", str(cache)],
                       stdout=sys.stderr, check=True,
                       timeout=PREPARE_TIMEOUT_S)
    # Flush what the build and --prepare wrote, so write-back does not
    # compete with the measured run.
    os.sync()


def run_workload(binary, cache, out_dir, name, args):
    """Runs one workload in its own process; returns its result dict, or
    None when the run failed without a result."""
    result_path = out_dir / f"result_{name}_{args.seed}_{args.trace}.json"
    result_path.unlink(missing_ok=True)
    command = [str(binary), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--json", str(result_path), "--out-dir", str(out_dir),
               "--cache-dir", str(cache), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} exceeded {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stdout)
    if proc.returncode not in (0, 3) or not result_path.exists():
        log(f"run.py: {name} exited with {proc.returncode}")
        return None
    return json.loads(result_path.read_text())


def contract_line(result, wanted):
    """The driver's line: the wanted metrics, each present and finite."""
    section = result["per_layer"] if result["trace"] else result["metrics"]
    metrics = {}
    for name in wanted:
        metric = section.get(name)
        if metric is None or metric["value"] is None or \
                not math.isfinite(metric["value"]):
            log(f"run.py: {result['workload']} did not report {name}")
            return None
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="copy of the full result(s)")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        log("run.py: unknown workload", args.workload)
        return 2
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in benchmark[section]]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve() / "serving"
    binary = build(build_dir)
    cache = cache_dir(build_dir, binary)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Every workload's one-off state is made on the first run of a build.
    prepare(binary, cache, workloads)

    if args.workload != "all":
        result = run_workload(binary, cache, out_dir, args.workload, args)
        line = contract_line(result, wanted) if result else None
        if line is None:
            return 1
        if args.json:
            Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1

    results = []
    for name in workloads:
        result = run_workload(binary, cache, out_dir, name, args)
        if result is None or contract_line(result, wanted) is None:
            return 1
        results.append(result)
    print(f"{'metric':34} {'value':>16}  {'unit':8} workload")
    for result in results:
        section_metrics = result["per_layer" if args.trace else "metrics"]
        for name in wanted:
            metric = section_metrics[name]
            print(f"{name:34} {metric['value']:16.6g}  {metric['unit']:8} "
                  f"{result['workload']}")
    merged = out_dir / f"serving_all_{args.seed}_{args.trace}.json"
    merged.write_text(json.dumps({"schema_version": 1, "results": results},
                                 indent=2) + "\n")
    if args.json:
        shutil.copyfile(merged, args.json)
    log("run.py: wrote", merged)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
