"""Benchmark for maxplus: end-to-end and per-layer metrics on seeded workloads.

Run from the root of a maxplus checkout (the library is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

Workloads are ``query``, ``build`` and ``cli`` (see ``workloads.py``).  One
process, no threads, one caller in a closed loop: each operation starts
when the previous one has been checked.  Every answer is checked against
the exact oracle in ``oracle.py``; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
line before it gives sample counts and failures by kind.

``--trace 0`` reports the end-to-end metrics.  Latencies are of verified
operations on integer inputs, scaled for the host's speed (``Reference``);
the detail line gives the unscaled values too.  A kind's typical latency
is the geometric mean, over its groups (geometries or commands), of each
group's median; the ``*_per_s`` rates are its reciprocal, and
``cli_call_ms`` and ``render_s`` are it.  ``setup_s`` is the median of
several fresh imports plus object builds.

``--trace 1`` runs whole rounds untraced for half the time, then the same
rounds again, on fresh objects, with spans around the library's public
functions (``tracing.py``).  It reports the per-layer metrics per traced
operation, so that they measure the work one operation costs and not how
many operations fit in the time, and ``trace.ops_per_s_ratio``: traced over
untraced operations per second on the same operations.

``failed`` counts the operations on integer inputs that fail (a wrong
answer or certificate, an exception, an unexpected exit code), and
``correct`` is false when it is not 0.  Operations on one-decimal inputs
that fail are the known float-residuation defect (ROADMAP item 2): they are
counted in ``ok_frac`` and as ``failed_decimal`` on the detail line, with
their errors, but not in ``failed``, because how many of them a timed run
meets changes from run to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import oracle
import tracing
import workloads

SETUPS = 21  # set-up repetitions per run; setup_s is their median
REFERENCE_S = 6e-4  # nominal time of one Reference sample
REFERENCE_EVERY_S = 0.05  # least time between two Reference samples
CLI_PROBES = 5  # subprocess repetitions for cli.startup_s and cli.import_s

PER_S = {
    "cone_member_per_s": "cone_member",
    "set_member_per_s": "set_member",
    "cone_decompose_per_s": "cone_decompose",
    "set_decompose_per_s": "set_decompose",
    "halfspace_check_per_s": "halfspace_check",
    "basis_per_s": "basis",
    "extreme_points_per_s": "extreme_points",
    "minkowski_verify_per_s": "minkowski_verify",
}


class Reference:
    """Speed of the host, sampled all through a run with fixed code.

    On a shared host the same code runs up to 1.5 times slower from one
    second to the next, and a run's medians shift with it.  A sample times
    the benchmark's own oracle on a fixed cone: Python of the same kind as
    the library, which never changes with it.  Each end-to-end timing is
    multiplied by the geometric mean of ``scale()`` as it stood when the
    timing began and when it ended, so timings read as on a host where one
    sample takes REFERENCE_S.  The end matters for operations that take
    seconds, such as ``render``, and is the start for short ones.
    """

    def __init__(self):
        rng = random.Random(0)
        self.gens = [tuple(rng.randint(-20, 20) for _ in range(6)) for _ in range(30)]
        self.queries = [tuple(rng.randint(-20, 20) for _ in range(6)) for _ in range(16)]
        self.samples: list = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        for x in self.queries:
            oracle.cone_member(self.gens, x)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def scale(self) -> float:
        """REFERENCE_S over the median of the last three samples, resampling
        first when REFERENCE_EVERY_S has passed."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples[-3:])


def set_up(workload):
    """Fresh import of maxplus, then the workload's library objects."""
    gc.collect()
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "maxplus" or m.startswith("maxplus.")]:
        del sys.modules[name]
    lib = workloads.Lib(
        importlib.import_module("maxplus"),
        importlib.import_module("maxplus.cli"),
        importlib.import_module("maxplus.render"),
    )
    state = workload.build(lib)
    return time.perf_counter() - t0, state


def measure(rounds, seconds: float, records: list, errors: list, reference) -> int:
    """Run whole rounds until `seconds` have passed, appending to records.

    A record is (kind, group, cli, decimal, scaled seconds, ok, seconds).
    Returns the number of rounds run.
    """
    t_start = time.perf_counter()
    done = 0
    for ops in rounds:
        for op in ops:
            scale = reference.scale()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, exc
            else:
                err = None
            dt = time.perf_counter() - t0
            scale = math.sqrt(scale * reference.scale())
            ok = False
            if err is None:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:  # malformed output
                    err = exc
            records.append((op.kind, op.group, op.cli, op.decimal, dt * scale, ok, dt))
            if not ok and len(errors) < 5:
                errors.append(f"{op.kind} decimal={op.decimal}: {err!r}")
        done += 1
        if time.perf_counter() - t_start >= seconds:
            break
    return done


def ops_per_s(records) -> float:
    """Verified operations per second of time spent in operations."""
    return sum(1 for r in records if r[5]) / sum(r[4] for r in records)


def count(groups: dict) -> int:
    return sum(len(v) for v in groups.values())


def typical(latencies: dict) -> float:
    """Geometric mean over groups of each group's median latency.

    Groups (geometries or commands) have latencies that differ by orders of
    magnitude; a quantile pooled over them would sit on the edge between
    two groups and jump between runs.
    """
    logs = [math.log(statistics.median(v)) for v in latencies.values()]
    return math.exp(sum(logs) / len(logs))


def tail(latencies: dict) -> float:
    """90th percentile of each latency over its group's median, pooled."""
    ratios = [dt / statistics.median(v) for v in latencies.values() for dt in v]
    return statistics.quantiles(ratios, n=10)[8]


def end_to_end(records, setups, peak_rss_kb) -> tuple:
    """(metrics, sample counts) for --trace 0."""
    # Latencies are of operations on integer inputs.  Which decimal ones the
    # float arithmetic gets right changes from seed to seed, and a wrong one
    # often returns early; their failures are counted in ok_frac instead.
    tried, verified = {}, {}
    for kind, group, via_cli, decimal, dt, ok, *_ in records:
        if decimal:
            continue
        tried.setdefault((kind, group, via_cli), []).append(dt)
        if ok:
            verified.setdefault((kind, group, via_cli), []).append(dt)

    def pick(test) -> dict:
        """Latencies of verified operations; failed ones where none verified,
        so that the metric still has a value (correct is false then)."""
        out = {key: v for key, v in verified.items() if test(*key)}
        return out or {key: v for key, v in tried.items() if test(*key)}

    every = pick(lambda k, g, c: True)
    failed = sum(1 for r in records if not r[5])
    m = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (ops_per_s(records), "1/s", len(records) - failed),
        "op_p50_ms": (typical(every) * 1e3, "ms", count(every)),
        "op_p90_ms": (typical(every) * tail(every) * 1e3, "ms", count(every)),
        "ok_frac": (1 - failed / len(records), "ratio", len(records)),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }
    for metric, kind in PER_S.items():
        groups = pick(lambda k, g, c: k == kind)
        m[metric] = (1 / typical(groups), "1/s", count(groups))
    cli = pick(lambda k, g, via_cli: via_cli and k != "render")
    m["cli_call_ms"] = (typical(cli) * 1e3, "ms", count(cli))
    render = pick(lambda k, g, c: k == "render")
    m["render_s"] = (typical(render), "s", count(render))
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in m.items()}
    return metrics, {k: c for k, (_, _, c) in m.items()}


def cli_probe(src: str, code: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(tracer, untraced, traced, counters, src) -> dict:
    """Per-layer metrics; the span totals are divided by the traced operations."""
    out = {}
    totals = tracing.summary(tracer)
    totals["trace.spans"] = len(tracer.start)
    for k, v in totals.items():
        if k.endswith((".calls", "_s", "_computed", ".spans")):
            unit = "s/op" if k.endswith("_s") else "count/op"
            out[k] = {"value": v / len(traced), "unit": unit}
        else:
            out[k] = {"value": v, "unit": "ratio"}
    startup = cli_probe(src, "pass")
    out["cli.startup_s"] = {"value": startup, "unit": "s"}
    out["cli.import_s"] = {"value": cli_probe(src, "import maxplus.cli") - startup, "unit": "s"}
    out["cli.exit_unexpected"] = {"value": counters["exit_unexpected"], "unit": "count"}
    out["trace.ops_per_s_ratio"] = {"value": ops_per_s(traced) / ops_per_s(untraced),
                                    "unit": "ratio"}
    return out


def unscaled(records, setups, peak_rss_kb) -> dict:
    """The timing metrics of end_to_end on the measured, unscaled seconds."""
    raw = [r[:4] + (r[6], r[5]) for r in records]
    metrics, _ = end_to_end(raw, setups, peak_rss_kb)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("s", "ms", "1/s")}


def run(args, root: str, workdir: str) -> tuple:
    src = os.path.join(root, "src")
    if args.workload == "query":
        workload = workloads.Query(args.seed, workdir)
    elif args.workload == "build":
        workload = workloads.Build(args.seed, workdir)
    else:
        workload = workloads.Cli(args.seed, workdir, src, in_process=bool(args.trace))

    reference = Reference()
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        scale = reference.scale()
        dt, state = set_up(workload)
        setups.append(dt * scale)
        raw_setups.append(dt)
    records, errors = [], []
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        # Both halves run the same rounds, from the first on.
        n = measure(workload.rounds(state), args.seconds / 2, records, errors, reference)
        untraced = list(records)
        _, state = set_up(workload)  # fresh objects: nothing derived carries over
        tracer = tracing.Tracer()
        tracer.install()
        try:
            measure(itertools.islice(workload.rounds(state), n), math.inf, records, errors,
                    reference)
        finally:
            tracer.restore()
        metrics = per_layer(tracer, untraced, records[len(untraced):], workload.counters, src)
        tracer.write(os.path.join(os.path.dirname(workdir), f"spans-{args.workload}.bin"))
        detail["skipped_spans"] = tracer.skipped
    else:
        measure(workload.rounds(state), args.seconds, records, errors, reference)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak = resource.getrusage(who).ru_maxrss
        metrics, samples = end_to_end(records, setups, peak)
        detail["samples"] = samples
        detail["reference_s"] = statistics.median(reference.samples)
        detail["unscaled"] = unscaled(records, raw_setups, peak)

    failed = [r for r in records if not r[5]]
    by_kind = {}
    for kind, _, _, dec, _, ok, _ in records:
        row = by_kind.setdefault(kind, {"attempted": 0, "failed": 0, "decimal": 0})
        row["attempted"] += 1
        row["failed"] += not ok
        row["decimal"] += dec
    int_failed = sum(1 for r in failed if not r[3])
    detail.update(
        failed_integer=int_failed,
        failed_decimal=len(failed) - int_failed,
        decimal_share=sum(r[3] for r in records) / len(records),
        by_kind=by_kind,
        errors=errors,
    )
    result = {
        "correct": int_failed == 0,
        "attempted": len(records),
        "failed": int_failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["query", "build", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "maxplus", "cli.py")):
        sys.stderr.write("perfbench: no src/maxplus here; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        detail, result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
