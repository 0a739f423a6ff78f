"""Timings of the attractive cusp's exact isotonic projection, in two trees.

Usage, from the root of a checkout, with a second checkout of the commit to
compare against at BASE::

    python3 tools/bench_exact.py --base BASE > BENCH_exact.json

Each tree is timed in its own interpreter, which imports ``wgflow`` from that
tree's ``src``: first BASE (``"base"``), then this checkout (``"change"``).
The inputs are atoms at sorted uniform draws on [-1, 1] with masses uniform
on [0.5, 1.5], normalised (seed 7), under the attractive unit cusp.  Two
operations are timed:

- ``structure``: ``analytic._structure`` at t = 0.5, the exact projection of
  the transported quantile, for each atom count in ``ATOMS``;
- ``run_exact``: ``wgflow run`` in process with ``method: exact``,
  ``RUN_ATOMS`` atoms, ``t_end = 1`` and ``tau = 0.01`` (100 steps on 200
  nodes), into a temporary directory.

Each tree is measured ``PASSES`` times, the trees in turn.  Each time is
the least over all passes of ``ROUNDS`` rounds of the seconds per call,
each round as many calls as take at least 0.2 s (``two_trees.least_time``).
The sha256 of every structure's ``repr`` and of the run's
``trajectory.csv`` and ``summary.csv`` must agree between the trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile

import two_trees

PASSES = 4
ROUNDS = 5
ATOMS = (100, 200, 400, 800, 1600)
RUN_ATOMS = 400


def _atoms(n: int) -> list[list[float]]:
    import numpy as np

    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-1.0, 1.0, n))
    ms = rng.uniform(0.5, 1.5, n)
    return [[float(x), float(m)] for x, m in zip(xs, ms / ms.sum())]


def measure() -> dict:
    """Timings and output digests of the ``wgflow`` on ``sys.path``."""
    from wgflow import KIND_ATTRACTIVE, ExactSolution, Measure1D, cli
    from wgflow.analytic import _structure

    results: dict = {"structure": {}}
    for n in ATOMS:
        sol = ExactSolution(KIND_ATTRACTIVE, Measure1D(atoms=tuple(map(tuple, _atoms(n)))), 1.0)
        structure = _structure(sol, 0.5)
        results["structure"][str(n)] = {
            "pieces": len(structure),
            "sha256": hashlib.sha256(repr(structure).encode()).hexdigest(),
            "s": two_trees.least_time(lambda: _structure(sol, 0.5), ROUNDS),
        }
    config = {
        "potential": {"eta": 1.0},
        "initial": {"atoms": _atoms(RUN_ATOMS)},
        "method": "exact",
        "t_end": 1.0,
        "tau": 0.01,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exact.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        argv = ["run", "--config", path, "--out", out, "--quiet"]
        if cli.main(argv) != 0:
            raise SystemExit("wgflow run failed")
        digests = {}
        for name in ("trajectory.csv", "summary.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        seconds = two_trees.least_time(lambda: cli.main(argv), ROUNDS)
        results["run_exact"] = {"atoms": RUN_ATOMS, "steps": 100, "sha256": digests, "s": seconds}
    return results


def report(base: dict, change: dict) -> dict:
    """The two trees' results with their speedups; their digests must agree."""
    for n in map(str, ATOMS):
        if base["structure"][n]["sha256"] != change["structure"][n]["sha256"]:
            raise SystemExit(f"structures differ at {n} atoms")
    if base["run_exact"]["sha256"] != change["run_exact"]["sha256"]:
        raise SystemExit("wgflow run outputs differ")
    summary = {f"structure_{n}_speedup": base["structure"][n]["s"] / change["structure"][n]["s"] for n in map(str, ATOMS)}
    summary["run_exact_speedup"] = base["run_exact"]["s"] / change["run_exact"]["s"]
    return {
        "command": "python3 tools/bench_exact.py --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"least of {PASSES} x {ROUNDS} rounds of seconds per call (timeit autorange), in {PASSES} "
        "interpreters per tree, the trees in turn",
        "results": {"base": base, "change": change},
        "speedup": summary,
    }


if __name__ == "__main__":
    sys.exit(two_trees.main(__file__, __doc__, measure, report, PASSES))
