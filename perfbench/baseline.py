"""Run the benchmark over several seeds and summarise each metric.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For every workload in BENCHMARK.json it runs ``perfbench/run.py`` once per
seed (end-to-end metrics, then one traced run on the first seed), and
prints per metric the median, the quartiles and their distance as a share
of the median (the spread), next to the metric's regression bound.  With
``--out`` it also writes these figures, with the Python version, ``nproc``
and the git commit, as a fresh JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(detail line, result line) of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in [w["name"] for w in bench["workloads"]]:
        values, failed, failed_decimal, attempted = {}, 0, 0, 0
        for seed in seeds(args.seeds):
            detail, result = run(name, seed, bench["run_seconds"], 0)
            failed += result["failed"]
            failed_decimal += detail["failed_decimal"]
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"failed_decimal={detail['failed_decimal']}", flush=True)
        rows = {}
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "bound": bounds[metric]}
            print(f"  {metric:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bounds[metric]}")
        traced = run(name, seeds(args.seeds)[0], bench["run_seconds"], 1)[1]["metrics"]
        print(f"  trace.ops_per_s_ratio {traced['trace.ops_per_s_ratio']['value']:.3f}")
        report["workloads"][name] = {
            "failed": failed,
            "failed_decimal": failed_decimal,
            "attempted": attempted,
            "end_to_end": rows,
            "per_layer_first_seed": {k: v["value"] for k, v in traced.items()},
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
