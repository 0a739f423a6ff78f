"""wgflow benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cusp_readme --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's job list runs untraced, each ``wgflow``
invocation a fresh process, again and again for ``--seconds``; the run
reports the end-to-end metrics of ``BENCHMARK.json``: the median wall time
of a pass over the job list, the median set-up time of fresh processes that
import ``wgflow`` and validate the workload's inputs, and the median over
passes of the largest child's peak resident set.  With ``--trace 1`` it
alternates untraced passes with passes under ``tracer.py`` and reports the
per-layer metrics and the tracing overhead.  Every job's outputs are
checked; the last line printed is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import harness
import layers
import workloads

SETUP_SAMPLES = 6
SETUP_PER_PASS = 2
MIN_PASSES = 3
RUN_BUDGET_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_probe() -> float:
    """Seconds for a fixed piece of numpy and Python work that runs no wgflow
    code.  Timed before each pass, it shows how fast the host was: when it
    drifts between runs together with ``wall_s``, the host moved, not the code.
    """
    start = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 400)
    for _ in range(30):
        np.abs(x[:, None] - x[None, :]) ** 1.5
    total = 0
    for i in range(600_000):
        total += i * i
    return time.perf_counter() - start


def _measure(runner: harness.Runner, jobs, seconds: float, trace: bool, detail: dict) -> dict:
    """Passes over ``jobs`` for about ``seconds``; returns the metric values.

    Untraced runs take set-up samples between passes, so that set-up and
    passes see the same machine load.
    """
    failures: list[str] = detail["failures"]
    inputs = [path for job in jobs for path in job.inputs]
    setup: list[float] = []

    def sample_setup(keep: bool = True):
        wall, failure = runner.setup_time(inputs)
        detail["attempted"] += 1
        if failure:
            failures.append(failure)
        elif keep:
            setup.append(wall)

    if not trace:
        sample_setup(keep=False)  # compiles bytecode
    walls, rss, probe = [], [], []
    traced_passes, steps_ms, overhead, traced_walls = [], [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        if not trace:
            for _ in range(SETUP_PER_PASS):
                sample_setup()
        began = time.monotonic()
        probe.append(host_probe())
        plain = runner.run_pass(jobs)
        results = list(plain)
        walls.append(sum(r.wall_s for r in plain))
        rss.append(max(r.peak_rss_mb for r in plain))
        if trace:
            traced = runner.run_pass(jobs, traced=True, pass_id=len(traced_passes))
            results += traced
            traced_walls.append(sum(r.wall_s for r in traced))
            overhead.append(traced_walls[-1] - walls[-1])
            if all(r.trace is not None for r in traced):
                metrics, steps = layers.pass_metrics(
                    [r.trace for r in traced], [(r.output_bytes, r.csv_rows) for r in traced]
                )
                traced_passes.append(metrics)
                steps_ms += steps
        for r in results:
            detail["attempted"] += 1
            if r.failure:
                failures.append(f"{r.name}: {r.failure}")
        now = time.monotonic()
        longest = max(longest, now - began)
        elapsed = now - start
        # at least MIN_PASSES, then another only if it should end within ``seconds``
        if runner.deadline - now < 2.0 * longest:
            break
        if len(walls) >= MIN_PASSES and elapsed * (1 + 1 / len(walls)) > seconds:
            break
    if not trace:
        for _ in range(SETUP_SAMPLES - len(setup)):
            sample_setup()

    detail["samples"] = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup, "host_probe_s": probe}
    if trace:
        if not traced_passes:
            raise RuntimeError("no traced pass completed: " + "; ".join(failures[-3:]))
        metrics, unsteady = layers.combine(traced_passes, steps_ms, overhead, traced_walls)
        detail["samples"]["traced_wall_s"] = traced_walls
        detail["unsteady_counts"] = unsteady
        return metrics
    if not setup:
        raise RuntimeError("no set-up sample succeeded: " + "; ".join(failures[-3:]))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write every sample and failure to this JSON file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wgflow", "cli.py")):
        return _fail(f"no wgflow sources under {src}; run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import wgflow

    if os.path.dirname(os.path.abspath(wgflow.__file__)) != os.path.join(src, "wgflow"):
        return _fail(f"imported wgflow from {wgflow.__file__}, not from {src}")

    deadline = time.monotonic() + RUN_BUDGET_S
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "attempted": 0, "failures": []}
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        runner = harness.Runner(root, workdir, deadline)
        values = _measure(runner, jobs, args.seconds, bool(args.trace), detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = detail["attempted"], len(detail["failures"])
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    for name in detail.get("unsteady_counts", []):
        print(f"WARNING count {name} differs between traced passes")
    for name, m in metrics.items():
        samples = detail["samples"].get(name)
        count = f" (median of {len(samples)})" if samples else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{count}")
    probe = detail["samples"]["host_probe_s"]
    print(f"{args.workload} host_probe_s {statistics.median(probe):.6g} s (median of {len(probe)}; not a metric)")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    if args.detail:
        detail["metrics"] = metrics
        with open(args.detail, "w") as fh:
            json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
