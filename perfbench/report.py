"""Run the benchmark on every workload and print each metric by name.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seeds 0,1,2] [--mode plain|trace] [--json FILE]

For each workload and seed this runs ``run.py`` once, untraced or traced,
and prints, per metric, the median over runs, the
distance between the first and third quartile as a share of the median, the
unit, the number of runs and the number of samples each run's value is the
median of.  ``host_probe_s`` is not a metric: it times a fixed piece of work
that runs no ``wgflow`` code, so a drift that it shares with ``wall_s`` is
the host's.  ``failed_frac`` is failed jobs over jobs attempted, every output
check included.  ``--json`` writes the same numbers to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".bench_build")) as tmp:
        detail_path = os.path.join(tmp, "detail.json")
        argv = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--detail", detail_path,
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(detail_path) as fh:
            result["detail"] = json.load(fh)
    return result


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def _sample_count(samples: dict, name: str) -> int:
    """How many samples a run's value is the median of."""
    return len(samples.get(name) or samples.get("traced_wall_s") or [None])


def _entry(values: list[float], unit: str, samples: list[int]) -> dict:
    return {
        "median": statistics.median(values),
        "spread": spread(values),
        "unit": unit,
        "runs": len(values),
        "samples_per_run": min(samples),
        "values": values,
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = _entry(values, metric["unit"], [_sample_count(r["detail"]["samples"], name) for r in runs])
    # not a metric: the host's speed over the same runs, to tell host drift from code drift
    probes = [r["detail"]["samples"]["host_probe_s"] for r in runs]
    out["host_probe_s"] = _entry([statistics.median(p) for p in probes], "s", [len(p) for p in probes])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out["failed_frac"] = {"median": failed / attempted, "unit": "1", "attempted": attempted, "failed": failed}
    return out


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--mode", choices=("plain", "trace"), default="plain")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(".bench_build", exist_ok=True)

    report: dict = {}
    for workload in workloads.NAMES:
        runs = [_run(workload, seed, args.seconds, args.mode == "trace") for seed in seeds]
        for r in runs:
            for failure in r["detail"]["failures"]:
                print(f"{workload} seed {r['detail']['seed']} FAILED {failure}")
            for name in r["detail"].get("unsteady_counts", []):
                print(f"{workload} seed {r['detail']['seed']} WARNING count {name} differs between passes")
        summary = report[workload] = summarize(runs)
        for name, s in summary.items():
            if name == "failed_frac":
                print(f"{workload:16s} {name:40s} {s['median']:<12.6g} ({s['failed']} of {s['attempted']} jobs)")
                continue
            print(
                f"{workload:16s} {name:40s} {s['median']:<12.6g} {s['unit']:<14s} "
                f"spread {s['spread']:.3f}  runs {s['runs']}  samples/run {s['samples_per_run']}"
            )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seeds": seeds, "seconds": args.seconds, "workloads": report}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
