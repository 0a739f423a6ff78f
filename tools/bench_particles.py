"""A particle run's time and memory: chunked integration against the forward
Euler loop, and the quantile trajectory's peak, in two trees.

Usage, from the root of a checkout, with a second checkout of the commit to
compare against at BASE::

    python3 tools/bench_particles.py --base BASE > BENCH_particles.json

Each tree is measured in its own interpreter, which imports ``wgflow`` from
that tree's ``src``: first BASE (``"base"``), then this checkout
(``"change"``), ``PASSES`` times in turn.  Two configurations run under the
attractive unit cusp, their grids at ``N_GRID`` nodes:

- ``particles_ot``: the five particles of the ``particles_ot`` benchmark
  workload for seed 1 (drawn as ``perfbench/workloads.py`` draws them),
  ``dt = 1e-3`` up to ``t = 4``;
- ``p64``: 64 particles at sorted uniform draws on [-1, 1] with masses
  uniform on [0.5, 1.5], normalised (seed 7), ``dt = 1e-4`` up to ``t = 2``.

For each, four operations are timed, each the least over all passes of
``ROUNDS`` rounds of the seconds per call (``two_trees.least_time``):

- ``integrate``: ``particles.integrate``;
- ``reference_integrate``: ``tests/oracles.reference_integrate``, the forward
  Euler loop with one ``ode_rhs`` call and one state per substep;
- ``quantile_trajectory``: ``particles.quantile_trajectory`` of the history;
- ``write_trajectory``: ``cli._write_particle_trajectory`` of the history,
  into a temporary directory.

``adapter_summary_peak_kib`` is the ``tracemalloc`` peak, in KiB, of
``quantile_trajectory`` followed by ``cli._write_summary`` of its result,
from a history already integrated, and ``summary_writer_peak_kib`` the
writer's own: its peak above what the trajectory held when it started.
Where the combined peak is reached inside ``quantile_trajectory``, only the
second shows a change to the writer.  The two histories are checked to agree
bit for bit, and the ``ode_rhs`` calls of one run of each integrator are
counted.

``wgflow_run``: the ``particles_ot`` workload's particle config (seed 1), at
``dt`` 1e-3 and 1e-4, per pass, each launched as three ``wgflow run``
processes (``two_trees.wgflow_run``): ``max_rss_kib`` is the ``ru_maxrss``,
as ``perfbench/launch.py`` reads it, of the process that compiles ``wgflow``
from source, as perfbench's processes do, and ``bytecode_max_rss_kib`` that
of the one that reads bytecode compiled beforehand; the report gives the
ratio of each.  Every peak is the least over the passes.  The sha256 of
each run's ``summary.csv`` and of each trajectory's energies and step costs
must agree between the trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
import tracemalloc

import numpy as np

import two_trees

sys.path[:0] = [two_trees.ROOT, os.path.join(two_trees.ROOT, "tests")]

from perfbench.workloads import build  # noqa: E402

PASSES = 3
ROUNDS = 3
N_GRID = 200
RUN_DTS = {"dt_1e-3": 1e-3, "dt_1e-4": 1e-4}


def configs() -> dict:
    """``name: (positions, masses, t_end, dt)`` of each configuration."""
    rng = np.random.default_rng([1, 3])
    xs = np.array([-2.7, -1.0, 0.0, 1.0, 2.7])
    xs = xs + rng.uniform(-1.0, 1.0) + rng.uniform(-0.2, 0.2, size=5)
    ms = 0.2 + rng.uniform(-0.04, 0.04, size=5)
    rng = np.random.default_rng(7)
    x64 = np.sort(rng.uniform(-1.0, 1.0, 64))
    m64 = rng.uniform(0.5, 1.5, 64)
    return {
        "particles_ot": (xs, ms / ms.sum(), 4.0, 1e-3),
        "p64": (x64, m64 / m64.sum(), 2.0, 1e-4),
    }


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _rhs_calls(integrator, *args) -> tuple[int, object]:
    from wgflow import particles

    rhs = particles.ode_rhs
    calls = [0]

    def counted(W, state):
        calls[0] += 1
        return rhs(W, state)

    particles.ode_rhs = counted
    try:
        result = integrator(*args)
    finally:
        particles.ode_rhs = rhs
    return calls[0], result


def _bench(xs, ms, t_end: float, dt: float, out_dir: str) -> dict:
    from oracles import reference_integrate
    from wgflow import cli, particles
    from wgflow.particles import ParticleState
    from wgflow.potential import Potential

    cusp = Potential(eta=1.0)
    args = (cusp, ParticleState(xs, ms), t_end, dt)
    calls, history = _rhs_calls(particles.integrate, *args)
    ref_calls, reference = _rhs_calls(reference_integrate, *args)
    if len(history) != len(reference) or any(
        a.time != b.time
        or a.positions.tobytes() != b.positions.tobytes()
        or a.masses.tobytes() != b.masses.tobytes()
        for a, b in zip(history, reference)
    ):
        raise SystemExit("integrate and reference_integrate disagree")
    path = os.path.join(out_dir, "trajectory.csv")
    tracemalloc.start()
    traj = particles.quantile_trajectory(cusp, history, N_GRID)
    held, adapter_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    cli._write_summary(os.path.join(out_dir, "summary.csv"), traj)
    writer_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "particles": xs.size,
        "substeps": len(history) - 1,
        "segments": len(history.segments),
        "ode_rhs_calls": calls,
        "reference_ode_rhs_calls": ref_calls,
        "energies_sha256": _digest(traj.energies),
        "step_costs_sha256": _digest(traj.step_costs),
        "adapter_summary_peak_kib": max(adapter_peak, writer_peak) / 1024.0,
        "summary_writer_peak_kib": (writer_peak - held) / 1024.0,
        "integrate_s": two_trees.least_time(lambda: particles.integrate(*args), ROUNDS),
        "reference_integrate_s": two_trees.least_time(lambda: reference_integrate(*args), ROUNDS),
        "quantile_trajectory_s": two_trees.least_time(
            lambda: particles.quantile_trajectory(cusp, history, N_GRID), ROUNDS
        ),
        "write_trajectory_s": two_trees.least_time(lambda: cli._write_particle_trajectory(path, history), ROUNDS),
    }


def measure() -> dict:
    """Timings, peaks and digests of the ``wgflow`` on ``sys.path``."""
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: _bench(*cfg, tmp) for name, cfg in configs().items()}
        build("particles_ot", 1, tmp)
        with open(os.path.join(tmp, "particles.json")) as fh:
            cfg = json.load(fh)
        runs = {}
        for name, dt in RUN_DTS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(dict(cfg, dt=dt), fh)
            runs[name] = two_trees.wgflow_run(path, os.path.join(tmp, name))
    results["wgflow_run"] = runs
    return results


def _digests(result: dict, path: str = "") -> dict:
    """Every value under a key ending in ``sha256``, by its path of keys."""
    out = {}
    for key, value in result.items():
        if isinstance(value, dict):
            out.update(_digests(value, f"{path}{key}/"))
        elif key.endswith("sha256"):
            out[path + key] = value
    return out


def report(base: dict, change: dict) -> dict:
    """The two trees' results with their speedups and peak ratios; every
    digest must agree."""
    want = _digests(base)
    for key, value in _digests(change).items():
        if value != want.get(key):
            raise SystemExit(f"{key} differs between the trees")
    ratios = {}
    for name in configs():
        for key in change[name]:
            if key.endswith("_s"):
                ratios[f"{name}_{key[:-2]}_speedup"] = base[name][key] / change[name][key]
        for key in ("adapter_summary_peak_kib", "summary_writer_peak_kib"):
            ratios[f"{name}_{key[:-4]}_ratio"] = change[name][key] / base[name][key]
    for name in RUN_DTS:
        for key in ("max_rss_kib", "bytecode_max_rss_kib"):
            runs = (change["wgflow_run"][name], base["wgflow_run"][name])
            ratios[f"wgflow_run_{name}_{key[:-4]}_ratio"] = runs[0][key] / runs[1][key]
    return {
        "command": "python3 tools/bench_particles.py --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"least of {PASSES} x {ROUNDS} rounds of seconds per call (timeit autorange), in {PASSES} "
        "interpreters per tree, the trees in turn; peaks the least over the passes",
        "results": {"base": base, "change": change},
        "ratios": ratios,
    }


if __name__ == "__main__":
    sys.exit(two_trees.main(__file__, __doc__, measure, report, PASSES))
