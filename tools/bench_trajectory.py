"""Trajectory energies, weak-residual velocities and ``wgflow ot`` imports, in two trees.

Usage, from the root of a checkout, with a second checkout of the commit to
compare against at BASE::

    python3 tools/bench_trajectory.py --base BASE > BENCH_trajectory.json

Each tree is measured in its own interpreter, which imports ``wgflow`` from
that tree's ``src``: first BASE (``"base"``), then this checkout
(``"change"``), ``PASSES`` times in turn.  Each pass makes two
trajectories, from the configs ``perfbench/workloads.py`` of this checkout
writes:

- ``particles``: the particle job of the ``particles_ot`` workload (seed 1),
  ``particles.quantile_trajectory`` of its history on 200 nodes;
- ``readme``: the README config, the ``cusp_readme`` workload's job for seed
  0, from ``jko.run_flow``: 1,001 grids of 200 values.

Timed, each the least over all passes of ``ROUNDS`` rounds of the seconds
per call (``two_trees.least_time``):

- ``trajectory``: ``jko._trajectory`` of each trajectory's grids, read as
  slices of one array, which takes their energies and step costs;
- ``energies``: the energies alone: ``potential.pair_energy`` once on the
  array of grids where the kernel takes rows, else once per grid;
- ``weak_residual``: ``analytic.weak_residual`` of the README trajectory,
  with the bumps ``wgflow run`` uses;
- ``velocities``: its midpoint velocities alone, ``-pair_force(..., cone=False)``
  on the midpoint grids, in one call or row by row as for ``energies``;
- ``ot_process``: one ``python -m wgflow.cli ot`` process on the workload's
  first 40x40 instance, ``ROUNDS`` processes per pass.

The ``wgflow`` modules that ``ot`` process imports are read off
``-X importtime``.

``wgflow_run``: one ``wgflow run`` process of each workload's run job,
per pass: the README (``cusp_readme``, seed 0), cusp+quadratic
(``cusp_quad_n4000``, seed 0), power (``power_n400``, seed 0) and particle
(``particles_ot``, seed 1) configs, and the README config run to ``t = 5``
(``readme_5001``: 5,001 records where the README job writes 1,001).  Its
``max_rss_kib`` is the child's ``ru_maxrss`` compiling ``wgflow`` from
source, as perfbench's processes do, and ``bytecode_max_rss_kib`` the same
from bytecode compiled beforehand (``two_trees.wgflow_run``), each the least
over the passes.  The report gives the change less the base of each, and
each tree's growth from 1,001 to 5,001 README records.

The sha256 of every energy and velocity array and run summary, and the weak
residual's hex, must agree between the trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

import two_trees

sys.path.insert(0, two_trees.ROOT)

from perfbench.workloads import build  # noqa: E402

PASSES = 4
ROUNDS = 5
# the workloads whose run job ``wgflow_run`` launches, and their seeds
RUNS = {
    "readme": ("cusp_readme", 0),
    "quad": ("cusp_quad_n4000", 0),
    "power": ("power_n400", 0),
    "particles": ("particles_ot", 1),
}
# the README config is also launched to this t_end: 5,001 records
README_LONG = ("readme_5001", 5.0)


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _configs(tmp: str) -> dict:
    """The particle and README configs, as ``ExperimentConfig``; every
    config of ``RUNS`` and ``README_LONG`` is written to ``tmp``."""
    from wgflow.cli import ExperimentConfig

    for workload, seed in RUNS.values():
        build(workload, seed, tmp)
    out = {}
    for name in ("particles", "readme"):
        with open(os.path.join(tmp, f"{name}.json")) as fh:
            out[name] = json.load(fh)
    long_name, t_end = README_LONG
    with open(os.path.join(tmp, f"{long_name}.json"), "w") as fh:
        json.dump(dict(out["readme"], t_end=t_end), fh)
    return {name: ExperimentConfig.from_json_dict(cfg) for name, cfg in out.items()}


def _ot_process(tmp: str) -> tuple[list[str], float]:
    """The ``wgflow`` modules one ``wgflow ot`` process imports, and the least
    wall time of ``ROUNDS`` such processes."""
    argv = [sys.executable, "-m", "wgflow.cli", "ot", os.path.join(tmp, "ot0.json")]
    err = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], check=True, capture_output=True, text=True).stderr
    names = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}
    best = np.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True)
        best = min(best, time.perf_counter() - start)
    return sorted(n for n in names if n.split(".")[0] == "wgflow"), best


def measure() -> dict:
    """Timings and digests of the ``wgflow`` on ``sys.path``."""
    from wgflow.analytic import default_bump_library, weak_residual
    from wgflow.jko import _trajectory, run_flow
    from wgflow.particles import ParticleState, integrate, quantile_trajectory
    from wgflow.potential import pair_energy, pair_force

    with tempfile.TemporaryDirectory() as tmp:
        cfgs = _configs(tmp)
        modules, ot_s = _ot_process(tmp)
        runs = {
            name: two_trees.wgflow_run(os.path.join(tmp, f"{name}.json"), os.path.join(tmp, name))
            for name in (*RUNS, README_LONG[0])
        }
    p = cfgs["particles"]
    atoms = sorted(p.initial.atoms)
    history = integrate(p.potential, ParticleState([x for x, _ in atoms], [m for _, m in atoms]), p.t_end, p.dt)
    r = cfgs["readme"]
    trajectories = {
        "particles": (p.potential, quantile_trajectory(p.potential, history, p.n)),
        "readme": (r.potential, run_flow(r.potential, r.initial, r.jko_config())),
    }

    def rows(fn, x, *args):
        # one call where the kernel takes an array of rows, else one per row:
        # a kernel of one row refuses the array, as its ``m @ x`` misaligns
        try:
            return fn(x, *args)
        except ValueError:
            return np.array([fn(row, *args) for row in x])

    results: dict = {}
    for name, (W, traj) in trajectories.items():
        grids = traj.grids
        n = grids.shape[1]
        m = np.full(n, 1.0 / n)
        read = lambda lo, hi: grids[lo:hi]  # noqa: E731
        energy = lambda x, m: pair_energy(W, x, m)  # noqa: E731
        results[name] = {
            "shape": list(grids.shape),
            "energies_sha256": _digest(_trajectory(W, traj.times, read, n).energies),
            "trajectory_s": two_trees.least_time(lambda: _trajectory(W, traj.times, read, n), ROUNDS),
            "energies_s": two_trees.least_time(lambda: rows(energy, grids, m), ROUNDS),
        }
    W, traj = trajectories["readme"]
    lo, hi = float(traj.grids.min()), float(traj.grids.max())
    pad = 0.1 * max(hi - lo, 1.0)
    t1 = float(traj.times[-1])
    bumps = default_bump_library((lo - pad, hi + pad), (0.05 * t1, 0.95 * t1))
    mid = 0.5 * (traj.grids[:-1] + traj.grids[1:])
    m = np.full(mid.shape[1], 1.0 / mid.shape[1])
    velocity = lambda x, m: -pair_force(W, x, m, cone=False)  # noqa: E731
    results["readme"].update(
        weak_residual_hex=float(weak_residual(traj, W, bumps)).hex(),
        velocities_sha256=_digest(rows(velocity, mid, m)),
        weak_residual_s=two_trees.least_time(lambda: weak_residual(traj, W, bumps), ROUNDS),
        velocities_s=two_trees.least_time(lambda: rows(velocity, mid, m), ROUNDS),
    )
    results["ot_process"] = {"wgflow_modules": modules, "s": ot_s}
    results["wgflow_run"] = runs
    return results


def report(base: dict, change: dict) -> dict:
    """The two trees' results with their speedups; every digest must agree."""
    for name in ("particles", "readme"):
        for key, value in base[name].items():
            if key.endswith(("sha256", "hex")) and change[name][key] != value:
                raise SystemExit(f"{name} {key} differs")
    for run in (*RUNS, README_LONG[0]):
        if change["wgflow_run"][run]["summary_sha256"] != base["wgflow_run"][run]["summary_sha256"]:
            raise SystemExit(f"wgflow_run {run} summary_sha256 differs")
    speedup = {
        f"{name}_{key[:-2]}_speedup": base[name][key] / change[name][key]
        for name in ("particles", "readme")
        for key in change[name]
        if key.endswith("_s")
    }
    speedup["ot_process_speedup"] = base["ot_process"]["s"] / change["ot_process"]["s"]
    rss = {
        f"{run}_{key}": change["wgflow_run"][run][key] - base["wgflow_run"][run][key]
        for run in (*RUNS, README_LONG[0])
        for key in ("max_rss_kib", "bytecode_max_rss_kib")
    }
    growth = {
        tree: result["wgflow_run"][README_LONG[0]]["max_rss_kib"] - result["wgflow_run"]["readme"]["max_rss_kib"]
        for tree, result in (("base", base), ("change", change))
    }
    return {
        "command": "python3 tools/bench_trajectory.py --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"least of {PASSES} x {ROUNDS} rounds of seconds per call (timeit autorange; one process per "
        f"round for ot_process), in {PASSES} interpreters per tree, the trees in turn",
        "results": {"base": base, "change": change},
        "speedup": speedup,
        # each run's peak RSS in the change less that in the base
        "wgflow_run_change_kib": rss,
        # each tree's README peak RSS at 5,001 records less that at 1,001
        "readme_run_max_rss_growth_kib": growth,
    }


if __name__ == "__main__":
    sys.exit(two_trees.main(__file__, __doc__, measure, report, PASSES))
