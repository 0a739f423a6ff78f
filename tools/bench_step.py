"""The implicit step's runs, with their page faults, peak RSS and kernel calls, in two trees.

Usage, from the root of a checkout, with a second checkout of the commit to
compare against at BASE::

    python3 tools/bench_step.py --base BASE > BENCH_step.json

Each tree is measured in its own interpreter, which imports ``wgflow`` from
that tree's ``src``: first BASE (``"base"``), then this checkout
(``"change"``), ``PASSES`` times in turn.  In each pass every config runs in
a fresh interpreter of its own, started before the pass imports numpy, so
that its figures are its own.  The configs are the seed-0 jobs that
``perfbench/workloads.py`` of this checkout writes:

- ``power``: the ``power_n400`` workload, ``|x|^1.5`` with a cusp, 10 steps
  on 400 points;
- ``readme``: the README config of the ``cusp_readme`` workload, 1000 steps
  on 200 points.

For each config, from one ``jko.run_flow`` call, the first in its
interpreter: ``minor_faults``, the minor page faults it takes, and
``maxrss_kib``, the interpreter's ``ru_maxrss`` after it.  Then
``run_flow_s``, the least of ``ROUNDS`` rounds of the seconds per call
(``two_trees.least_time``), and ``calls``, how often one more call invokes
``pair_energy_force``, ``pair_hessian`` and ``pair_energy`` through the
names ``wgflow.jko`` binds.  Faults and peak RSS move by a few between
passes, so, like the times, the least over the passes is kept;
``run_flow_s_spread`` is the largest pass's time over the least.  The sha256
of the grids, energies and step costs must agree between the trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import two_trees

PASSES = 4
ROUNDS = 5
CONFIGS = {"power": "power_n400", "readme": "cusp_readme"}
KERNELS = ("pair_energy_force", "pair_hessian", "pair_energy")


def _run(name: str) -> dict:
    """The figures of one config, measured in this interpreter."""
    import resource

    import numpy as np

    sys.path.insert(0, two_trees.ROOT)
    from perfbench.workloads import build
    from wgflow import jko
    from wgflow.cli import ExperimentConfig

    with tempfile.TemporaryDirectory() as tmp:
        build(CONFIGS[name], 0, tmp)
        with open(os.path.join(tmp, f"{name}.json")) as fh:
            cfg = ExperimentConfig.from_json_dict(json.load(fh))
    args = (cfg.potential, cfg.initial, cfg.jko_config())
    before = resource.getrusage(resource.RUSAGE_SELF)
    traj = jko.run_flow(*args)
    after = resource.getrusage(resource.RUSAGE_SELF)
    calls = dict.fromkeys(KERNELS, 0)

    def counted(kernel, fn):
        def wrapper(*a, **k):
            calls[kernel] += 1
            return fn(*a, **k)

        return wrapper

    run_flow_s = two_trees.least_time(lambda: jko.run_flow(*args), ROUNDS)
    originals = {k: getattr(jko, k) for k in KERNELS if hasattr(jko, k)}
    for kernel, fn in originals.items():
        setattr(jko, kernel, counted(kernel, fn))
    try:
        jko.run_flow(*args)
    finally:
        for kernel, fn in originals.items():
            setattr(jko, kernel, fn)

    def digest(a) -> str:
        return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()

    return {
        "shape": list(traj.grids.shape),
        "grids_sha256": digest(traj.grids),
        "energies_sha256": digest(traj.energies),
        "step_costs_sha256": digest(traj.step_costs),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "maxrss_kib": after.ru_maxrss,
        "run_flow_s": run_flow_s,
        "calls": calls,
    }


def measure() -> dict:
    """Each config's figures, each from a fresh interpreter."""
    out = {}
    for name in CONFIGS:
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--run", name], check=True, capture_output=True, text=True
        )
        out[name] = json.loads(run.stdout)
    return out


def report(base: dict, change: dict) -> dict:
    """The two trees' results with their ratios; every digest must agree."""
    for name in CONFIGS:
        for key, value in base[name].items():
            if key.endswith("sha256") and change[name][key] != value:
                raise SystemExit(f"{name} {key} differs")
    ratios = {}
    for name in CONFIGS:
        b, c = base[name], change[name]
        ratios[f"{name}_run_flow_speedup"] = b["run_flow_s"] / c["run_flow_s"]
        ratios[f"{name}_minor_faults_ratio"] = c["minor_faults"] / b["minor_faults"]
        ratios[f"{name}_maxrss_kib_change"] = c["maxrss_kib"] - b["maxrss_kib"]
    return {
        "command": "python3 tools/bench_step.py --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"least of {PASSES} x {ROUNDS} rounds of seconds per call (timeit autorange), its spread "
        f"the largest pass over the least; faults and ru_maxrss the least of {PASSES} first calls, each config "
        f"in a fresh interpreter per pass, {PASSES} passes per tree, the trees in turn",
        "results": {"base": base, "change": change},
        "ratios": ratios,
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        json.dump(_run(sys.argv[2]), sys.stdout)
        sys.exit(0)
    sys.exit(two_trees.main(__file__, __doc__, measure, report, PASSES))
