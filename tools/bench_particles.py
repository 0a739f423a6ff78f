"""In-process timings of a particle run: chunked integration against the forward Euler loop.

Usage, from the root of a checkout::

    python3 tools/bench_particles.py > BENCH_particles.json

Two configurations run under the attractive unit cusp, their grids at
``N_GRID`` nodes:

- ``particles_ot``: the five particles of the ``particles_ot`` benchmark
  workload for seed 1 (drawn as ``perfbench/workloads.py`` draws them),
  ``dt = 1e-3`` up to ``t = 4``;
- ``p64``: 64 particles at sorted uniform draws on [-1, 1] with masses
  uniform on [0.5, 1.5], normalised (seed 7), ``dt = 1e-4`` up to ``t = 2``.

For each, four operations are timed:

- ``integrate``: ``particles.integrate``;
- ``reference_integrate``: ``tests/oracles.reference_integrate``, the forward
  Euler loop with one ``ode_rhs`` call and one state per substep;
- ``quantile_trajectory``: ``particles.quantile_trajectory`` of the history;
- ``write_trajectory``: ``cli._write_particle_trajectory`` of the history,
  into a temporary directory.

Each time is the median over ``REPEATS`` rounds of the seconds per call,
each round as many calls as take at least 0.2 s (``timeit``'s autorange).
The two histories are checked to agree bit for bit, and the ``ode_rhs``
calls of one run of each integrator are counted.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import timeit

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import reference_integrate  # noqa: E402
from wgflow import cli, particles  # noqa: E402
from wgflow.particles import ParticleState  # noqa: E402
from wgflow.potential import Potential  # noqa: E402

REPEATS = 5
N_GRID = 200
CUSP = Potential(eta=1.0)


def _time(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(t / number for t in timer.repeat(REPEATS, number))


def configs() -> dict:
    """``name: (initial state, t_end, dt)`` of each configuration."""
    rng = np.random.default_rng([1, 3])
    xs = np.array([-2.7, -1.0, 0.0, 1.0, 2.7])
    xs = xs + rng.uniform(-1.0, 1.0) + rng.uniform(-0.2, 0.2, size=5)
    ms = 0.2 + rng.uniform(-0.04, 0.04, size=5)
    rng = np.random.default_rng(7)
    x64 = np.sort(rng.uniform(-1.0, 1.0, 64))
    m64 = rng.uniform(0.5, 1.5, 64)
    return {
        "particles_ot": (ParticleState(xs, ms / ms.sum()), 4.0, 1e-3),
        "p64": (ParticleState(x64, m64 / m64.sum()), 2.0, 1e-4),
    }


def _rhs_calls(integrator, *args) -> tuple[int, object]:
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


def bench(state, t_end: float, dt: float, out_dir: str) -> dict:
    args = (CUSP, state, t_end, dt)
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
    return {
        "particles": state.count,
        "substeps": len(history) - 1,
        "segments": len(history.segments),
        "ode_rhs_calls": calls,
        "reference_ode_rhs_calls": ref_calls,
        "integrate_s": _time(lambda: particles.integrate(*args)),
        "reference_integrate_s": _time(lambda: reference_integrate(*args)),
        "quantile_trajectory_s": _time(lambda: particles.quantile_trajectory(CUSP, history, N_GRID)),
        "write_trajectory_s": _time(lambda: cli._write_particle_trajectory(path, history)),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        results = {name: bench(*cfg, out_dir) for name, cfg in configs().items()}
    for row in results.values():
        row["integrate_speedup"] = row["reference_integrate_s"] / row["integrate_s"]
    json.dump({
        "command": "python3 tools/bench_particles.py",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"median of {REPEATS} rounds of seconds per call (timeit autorange)",
        "results": results,
    }, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
