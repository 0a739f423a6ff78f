"""Pivots, timings and accuracy of the transportation simplex, in two trees.

Usage, from the root of a checkout, with a second checkout of the commit to
compare against at BASE::

    python3 tools/bench_simplex.py --base BASE > BENCH_simplex.json

Each tree is measured in its own interpreter, which imports ``wgflow`` from
that tree's ``src``: first BASE (``"base"``), then this checkout
(``"change"``).  ``transport.solve_primal`` runs on five sets of instances:

- ``particles_ot``: the three 40x40 instances of the ``particles_ot``
  benchmark workload for each of seeds 1-10, written by
  ``perfbench/workloads.py`` of this checkout;
- ``near_tied``: 40 instances with uniform masses, 8-15 rows and columns
  and costs ``k*1e6 + l*0.1``, k in 0..3 and l in 0..2 (seed 16);
- ``tied_integer``: 200 instances with 2-9 rows and columns, integer costs
  in 0..2 and masses on a dyadic lattice, which force degenerate pivots
  (seed 17);
- ``n160``: one 160x160 instance drawn as the workload draws its 40x40 ones
  (seed 18);
- ``near_tied_11x12``: the 11x12 near-tied instance of ``default_rng(1)``
  that ran into the pivot cap under the absolute threshold.

Per set it records the pivots (each pivot re-hangs one subtree through
``transport._hang``, which also builds the start, so pivots are its calls
less ``m + n - 1``), the solves that ended at the pivot cap, the seconds per
solve (the least of ``REPEATS`` rounds over the whole set, without the
counting) and the largest ``|objective - linprog|``, absolute and relative
to ``max(|objective|, |linprog|)``, against HiGHS through
``tests/oracles.linprog_transport_minimum``.  A capped solve has no
objective.  The change must reach no cap and agree with ``linprog`` to
``REL_TOL``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

import two_trees

sys.path[:0] = [two_trees.ROOT, os.path.join(two_trees.ROOT, "tests")]

from oracles import linprog_transport_minimum  # noqa: E402
from perfbench.workloads import build  # noqa: E402

REPEATS = 3
REL_TOL = 1e-12


def _uniform(cost):
    m, n = cost.shape
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost


def _dyadic(rng, cost):
    masses = []
    for k in cost.shape:
        w = rng.integers(1, 5, size=k).astype(float)
        total = 2.0 ** np.ceil(np.log2(w.sum()))
        w[0] += total - w.sum()
        masses.append(w / total)
    return masses[0], masses[1], cost


def _points(rng, size):
    p = 0.5 + rng.random(size)
    q = 0.5 + rng.random(size)
    d = rng.random((size, 2))[:, None, :] - rng.random((size, 2))[None, :, :]
    return p / p.sum(), q / q.sum(), np.sum(d * d, axis=2)


def _workload(seed):
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        build("particles_ot", seed, tmp)
        for k in range(3):
            with open(os.path.join(tmp, f"ot{k}.json")) as fh:
                d = json.load(fh)
            p = np.array([w for _, w in d["sources"]])
            q = np.array([w for _, w in d["sinks"]])
            diff = np.array([x for x, _ in d["sources"]])[:, None, :] - np.array([x for x, _ in d["sinks"]])[None, :, :]
            out.append((p, q, np.sum(diff * diff, axis=2)))
    return out


def _near_tied(rng):
    m, n = (int(k) for k in rng.integers(8, 16, size=2))
    return _uniform(rng.integers(0, 4, (m, n)) * 1e6 + rng.integers(0, 3, (m, n)) * 0.1)


def instance_sets() -> dict:
    """The ``(p, q, cost)`` triples of every set, by name."""
    near, tied, big = (np.random.default_rng(s) for s in (16, 17, 18))
    return {
        "particles_ot": [inst for seed in range(1, 11) for inst in _workload(seed)],
        "near_tied": [_near_tied(near) for _ in range(40)],
        "tied_integer": [
            _dyadic(tied, tied.integers(0, 3, size=tied.integers(2, 10, size=2)).astype(float)) for _ in range(200)
        ],
        "n160": [_points(big, 160)],
        "near_tied_11x12": [_near_tied(np.random.default_rng(1))],
    }


def measure() -> dict:
    """Pivots, timings and errors of the ``wgflow`` on ``sys.path``."""
    from wgflow import DiscreteInstance, PivotCapReached, solve_primal, transport

    hang = transport._hang
    calls = [0]

    def counted(*args):
        calls[0] += 1
        hang(*args)

    results = {}
    for name, triples in instance_sets().items():
        insts = [DiscreteInstance(np.zeros((p.size, 1)), p, np.zeros((q.size, 1)), q, c) for p, q, c in triples]
        pivots, capped, abs_err, rel_err = [], 0, 0.0, 0.0
        transport._hang = counted
        for inst, triple in zip(insts, triples):
            calls[0] = 0
            try:
                obj = solve_primal(inst).objective
            except PivotCapReached:
                capped += 1
                obj = None
            pivots.append(calls[0] - sum(inst.cost.shape) + 1)
            if obj is not None:
                lp = linprog_transport_minimum(*triple)
                abs_err = max(abs_err, abs(obj - lp))
                rel_err = max(rel_err, abs(obj - lp) / max(abs(obj), abs(lp)) if obj != lp else 0.0)
        transport._hang = hang
        best = np.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            for inst in insts:
                try:
                    solve_primal(inst)
                except PivotCapReached:
                    pass
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "instances": len(insts),
            "capped": capped,
            "pivots": sum(pivots),
            "max_pivots": max(pivots),
            "s_per_solve": best / len(insts),
            "max_abs_err": abs_err,
            "max_rel_err": rel_err,
        }
    return results


def report(base: dict, change: dict) -> dict:
    """The two trees' results with their speedups; the change must reach no
    cap and agree with ``linprog`` to ``REL_TOL``."""
    for name, res in change.items():
        if res["capped"] or res["max_rel_err"] > REL_TOL:
            raise SystemExit(f"{name}: {res['capped']} capped, relative error {res['max_rel_err']:.3e}")
    return {
        "command": "python3 tools/bench_simplex.py --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"least of {REPEATS} rounds of the seconds per solve over each set, each tree in its own interpreter",
        "results": {"base": base, "change": change},
        "speedup": {name: base[name]["s_per_solve"] / change[name]["s_per_solve"] for name in change},
    }


if __name__ == "__main__":
    sys.exit(two_trees.main(__file__, __doc__, measure, report))
