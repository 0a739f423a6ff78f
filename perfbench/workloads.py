"""Seeded workloads for the wgflow benchmark and the oracles that check them.

A workload is a list of ``wgflow`` CLI jobs.  ``build(name, seed, workdir)``
writes the job inputs into ``workdir`` and returns the jobs; seed 0 gives the
reference configurations, other seeds translate or jitter atom positions and
masses and redraw transport instances, and keep the potential, ``n``, ``tau``
and the step count fixed.

Each job carries a check that reads the job's outputs and raises
``CheckFailure`` when they disagree with an oracle that does not run the
solver under test: closed-form solutions, ``scipy`` isotonic regression and
linear programming, and residuals recomputed from public functions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("cusp_readme", "cusp_quad_n4000", "power_n400", "particles_ot")


class CheckFailure(Exception):
    """An output disagreed with its oracle."""


@dataclass
class Job:
    """One ``wgflow`` invocation.

    ``argv`` follows the ``wgflow`` program name; ``{out}`` in it is replaced
    by the job's output directory, relative to the run's working directory.
    ``check(out_dir, stdout)`` raises ``CheckFailure`` on a wrong output.
    """

    name: str
    argv: list[str]
    check: Callable[[str, str], None]
    inputs: list[str] = field(default_factory=list)

    def command(self, out_dir: str) -> list[str]:
        return [out_dir if a == "{out}" else a for a in self.argv]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _run_job(workdir: str, name: str, cfg: dict, check) -> Job:
    path = os.path.join(workdir, f"{name}.json")
    _write_json(path, cfg)
    argv = ["run", "--config", f"{name}.json", "--out", "{out}", "--quiet"]
    return Job(name, argv, check, [f"{name}.json"])


def read_grid_trajectory(out_dir: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and states (one row per state) from a grid ``trajectory.csv``."""
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    _require(header == "t,i,s_i,X_i", f"trajectory header {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(rows.shape[0] % n == 0, f"{rows.shape[0]} rows is not a multiple of n={n}")
    rows = rows.reshape(-1, n, 4)
    _require(np.array_equal(rows[:, :, 1], np.broadcast_to(np.arange(n), rows.shape[:2])), "index column")
    _require(np.all(rows[:, :, 0] == rows[:, :1, 0]), "time differs within a state")
    nodes = (np.arange(n) + 0.5) / n
    _require(np.max(np.abs(rows[:, :, 2] - nodes)) <= 1e-15, "mass labels are not (i+1/2)/n")
    states = rows[:, :, 3]
    _require(np.all(np.diff(states, axis=1) >= 0.0), "a grid is not nondecreasing")
    return rows[:, 0, 0], states


def read_summary(out_dir: str) -> np.ndarray:
    """``summary.csv`` as rows of (t, energy, metric_derivative, step_cost)."""
    path = os.path.join(out_dir, "summary.csv")
    with open(path) as fh:
        header = fh.readline().strip()
        _require(header == "t,energy,metric_derivative,step_cost", f"summary header {header!r}")
        rows = [[float(v) if v else math.nan for v in line.strip().split(",")] for line in fh]
    return np.array(rows)


def _check_time_axis(times: np.ndarray, tau: float, steps: int):
    _require(times.size == steps + 1, f"{times.size} states, expected {steps + 1}")
    _require(np.max(np.abs(times - tau * np.arange(steps + 1))) <= 1e-12, "time axis")


def _check_energy_decrease(out_dir: str, states: int):
    summary = read_summary(out_dir)
    _require(summary.shape[0] == states, f"summary has {summary.shape[0]} rows, expected {states}")
    energy = summary[:, 1]
    _require(np.all(np.isfinite(energy)), "non-finite energy")
    _require(np.all(np.diff(energy) <= 1e-12 * (1.0 + np.abs(energy[:-1]))), "energy increased")


def _pava(y: np.ndarray) -> np.ndarray:
    from scipy.optimize import isotonic_regression

    return isotonic_regression(y).x


# --------------------------------------------------------------------------
# cusp_readme


def _cusp_readme(seed: int, workdir: str, rng) -> list[Job]:
    x0 = 0.0 if seed == 0 else float(rng.uniform(-1.0, 1.0))
    tau, n, t_end = 1e-3, 200, 1.0
    cfg = {
        "potential": {"eta": -1.0, "beta": 0.0, "terms": []},
        "initial": {"atoms": [[x0, 1.0]], "pieces": []},
        "method": "jko",
        "tau": tau,
        "n": n,
        "t_end": t_end,
        "diagnostics": {
            "energy_identity": True,
            "evi_sigma": {"pieces": [[x0 - 1.0, x0 + 1.0, 1.0]]},
            "weak_residual": True,
            "metric_derivative": True,
        },
    }
    steps = round(t_end / tau)
    expected: list[np.ndarray] = []

    def check(out_dir: str, stdout: str):
        if not expected:
            from wgflow.analytic import KIND_REPULSIVE, ExactSolution, exact_grid
            from wgflow.measures import Measure1D

            sol = ExactSolution(KIND_REPULSIVE, Measure1D.dirac(x0), 1.0)
            expected.append(np.array([exact_grid(sol, k * tau, n).values for k in range(steps + 1)]))
        times, states = read_grid_trajectory(out_dir, n)
        _check_time_axis(times, tau, steps)
        w2 = np.sqrt(np.mean((states - expected[0]) ** 2, axis=1))
        _require(np.max(w2) <= 1e-10, f"W2 to the exact solution {np.max(w2):.3e} > 1e-10")
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            diag = json.load(fh)
        _require(diag["energy_identity_residual"] <= 1e-10, f"energy identity {diag['energy_identity_residual']:.3e}")
        _require(diag["weak_residual"] <= 1e-8, f"weak residual {diag['weak_residual']:.3e}")
        _require(diag["evi_max_residual"] <= tau, f"EVI residual {diag['evi_max_residual']:.3e} > tau")
        _check_energy_decrease(out_dir, steps + 1)

    return [_run_job(workdir, "readme", cfg, check)]


# --------------------------------------------------------------------------
# cusp_quad_n4000


def quad_closed_form_step(prev: np.ndarray, eta: float, beta: float, tau: float) -> np.ndarray:
    """One implicit step for ``eta|x| + beta x^2/2``: ``X = c + PAVA(z)``."""
    n = prev.size
    c = float(np.mean(prev))
    r = 2.0 * np.arange(n) + 1.0 - n
    z = ((prev - c) / tau - eta * r / n) / (1.0 / tau + beta)
    return c + _pava(z)


def _two_atom_grid(a: float, b: float, m: float, n: int) -> np.ndarray:
    nodes = (np.arange(n) + 0.5) / n
    return np.where(nodes < m, a, b)


def _cusp_quad(seed: int, workdir: str, rng) -> list[Job]:
    eta, beta, tau, n, t_end = -1.0, 1.0, 1e-2, 4000, 0.02
    if seed == 0:
        a, b, m = -1.0, 1.0, 0.5
    else:
        shift = rng.uniform(-1.0, 1.0)
        a = float(shift - 1.0 + rng.uniform(-0.2, 0.2))
        b = float(shift + 1.0 + rng.uniform(-0.2, 0.2))
        m = float(0.5 + rng.uniform(-0.1, 0.1))
    cfg = {
        "potential": {"eta": eta, "beta": beta, "terms": []},
        "initial": {"atoms": [[a, m], [b, 1.0 - m]], "pieces": []},
        "method": "jko",
        "tau": tau,
        "n": n,
        "t_end": t_end,
        "diagnostics": {"metric_derivative": True},
    }
    steps = round(t_end / tau)
    expected: list[np.ndarray] = []

    def check(out_dir: str, stdout: str):
        if not expected:
            x = _two_atom_grid(a, b, m, n)
            expected.append(x)
            for _ in range(steps):
                x = quad_closed_form_step(x, eta, beta, tau)
                expected.append(x)
        times, states = read_grid_trajectory(out_dir, n)
        _check_time_axis(times, tau, steps)
        diff = float(np.max(np.abs(states - np.array(expected))))
        _require(diff <= 1e-9, f"closed-form step differs by {diff:.3e} > 1e-9")
        drift = float(np.max(np.abs(states.mean(axis=1) - expected[0].mean())))
        _require(drift <= 1e-10, f"mean drifted by {drift:.3e}")
        _check_energy_decrease(out_dir, steps + 1)

    return [_run_job(workdir, "quad", cfg, check)]


# --------------------------------------------------------------------------
# power_n400


def prox_gradient_residual(W, prev: np.ndarray, x: np.ndarray, tau: float) -> float:
    """Proximal-gradient residual of ``x`` for the step from ``prev``.

    The inner objective is ``|x - prev|^2 / (2 tau) + n E(x)`` on the monotone
    cone; the residual is ``|P(x - alpha g) - x| / alpha`` with ``g`` its
    gradient and ``alpha`` the step length the solver starts from.
    """
    from wgflow.jko import isotonic_project
    from wgflow.measures import QuantileGrid
    from wgflow.potential import curvature_bound, energy_subgradient

    n = x.size
    g = (x - prev) / tau + n * energy_subgradient(W, QuantileGrid(x))
    radius = max(1.0, 2.0 * float(np.max(np.abs(prev))) + 1.0)
    alpha = 1.0 / (1.0 / tau + 2.0 * curvature_bound(W, radius))
    y = isotonic_project(x - alpha * g).values
    return float(np.linalg.norm(y - x)) / alpha


def _power(seed: int, workdir: str, rng) -> list[Job]:
    tau, n, t_end = 1e-2, 400, 0.1
    x0 = 0.0 if seed == 0 else float(rng.uniform(-1.0, 1.0))
    potential = {"eta": -1.0, "beta": 0.0, "terms": [[1.0, 1.5]]}
    cfg = {
        "potential": potential,
        "initial": {"atoms": [[x0, 1.0]], "pieces": []},
        "method": "jko",
        "tau": tau,
        "n": n,
        "t_end": t_end,
        "diagnostics": {"metric_derivative": True},
    }
    steps = round(t_end / tau)
    inner_tol = 1e-10 * n

    def check(out_dir: str, stdout: str):
        from wgflow.potential import Potential

        W = Potential.from_json_dict(potential)
        times, states = read_grid_trajectory(out_dir, n)
        _check_time_axis(times, tau, steps)
        _require(np.all(states[0] == x0), "initial grid is not the Dirac")
        for k in range(1, steps + 1):
            res = prox_gradient_residual(W, states[k - 1], states[k], tau)
            _require(res <= inner_tol, f"step {k}: residual {res:.3e} > inner_tol {inner_tol:.3e}")
        drift = float(np.max(np.abs(states.mean(axis=1) - x0)))
        _require(drift <= 1e-10, f"mean drifted by {drift:.3e}")
        _check_energy_decrease(out_dir, steps + 1)

    return [_run_job(workdir, "power", cfg, check)]


# --------------------------------------------------------------------------
# particles_ot


def read_ot_stdout(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("primal", "dual", "gap"):
            values[key] = float(value)
    _require(set(values) == {"primal", "dual", "gap"}, f"ot output lacks a field: {stdout!r}")
    return values


def linprog_optimum(sources, sinks) -> float:
    """Transport optimum with squared Euclidean cost from HiGHS."""
    from scipy.optimize import linprog

    P = np.array([pt for pt, _ in sources], dtype=float)
    Q = np.array([pt for pt, _ in sinks], dtype=float)
    p = np.array([w for _, w in sources])
    q = np.array([w for _, w in sinks])
    cost = np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=2)
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(
        cost.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([p, q]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise CheckFailure(f"linprog did not solve the instance: {res.message}")
    return float(res.fun)


def _ot_job(workdir: str, index: int, rng, size: int = 40) -> Job:
    p = 0.5 + rng.random(size)
    q = 0.5 + rng.random(size)
    p /= p.sum()
    q /= q.sum()
    sources = [[pt.tolist(), float(w)] for pt, w in zip(rng.random((size, 2)), p)]
    sinks = [[pt.tolist(), float(w)] for pt, w in zip(rng.random((size, 2)), q)]
    name = f"ot{index}.json"
    _write_json(os.path.join(workdir, name), {"sources": sources, "sinks": sinks})
    expected: list[float] = []

    def check(out_dir: str, stdout: str):
        if not expected:
            expected.append(linprog_optimum(sources, sinks))
        got = read_ot_stdout(stdout)
        _require(got["gap"] <= 1e-7, f"duality gap {got['gap']:.3e} > 1e-7")
        _require(abs(got["primal"] - got["dual"]) <= 1e-7, "primal and dual disagree")
        diff = abs(got["primal"] - expected[0])
        _require(diff <= 1e-9, f"primal differs from linprog by {diff:.3e} > 1e-9")

    return Job(f"ot{index}", ["ot", name], check, [name])


def read_particle_trajectory(out_dir: str) -> np.ndarray:
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    _require(header == "t,i,x_i,m_i", f"trajectory header {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _particles_ot(seed: int, workdir: str, rng) -> list[Job]:
    dt, n, t_end = 1e-3, 200, 4.0
    xs = np.array([-2.7, -1.0, 0.0, 1.0, 2.7])
    ms = np.full(5, 0.2)
    if seed != 0:
        xs = xs + rng.uniform(-1.0, 1.0) + rng.uniform(-0.2, 0.2, size=5)
        ms = ms + rng.uniform(-0.04, 0.04, size=5)
        ms /= ms.sum()
    atoms = [[float(x), float(w)] for x, w in zip(xs, ms)]
    cfg = {
        "potential": {"eta": 1.0, "beta": 0.0, "terms": []},
        "initial": {"atoms": atoms, "pieces": []},
        "method": "particles",
        "dt": dt,
        "n": n,
        "t_end": t_end,
        "diagnostics": {"metric_derivative": True},
    }
    centre = float(np.dot(xs, ms))
    expected: list[float] = []

    def check(out_dir: str, stdout: str):
        if not expected:
            from wgflow.analytic import KIND_ATTRACTIVE, ExactSolution, collapse_time
            from wgflow.measures import Measure1D

            init = Measure1D(atoms=tuple((x, w) for x, w in atoms))
            expected.append(collapse_time(ExactSolution(KIND_ATTRACTIVE, init, 1.0)))
        rows = read_particle_trajectory(out_dir)
        starts = np.flatnonzero(rows[:, 1] == 0)
        counts = np.diff(np.append(starts, rows.shape[0]))
        _require(np.array_equal(rows[:, 1], np.concatenate([np.arange(c) for c in counts])), "index column")
        _require(abs(rows[-1, 0] - t_end) <= 1e-9, f"last time {rows[-1, 0]} is not t_end")
        _require(counts[-1] == 1, f"{counts[-1]} particles at t_end, expected one atom")
        _require(abs(rows[-1, 2] - centre) <= 1e-9, f"final atom at {rows[-1, 2]}, centre of mass {centre}")
        _require(abs(rows[-1, 3] - 1.0) <= 1e-12, f"final atom has mass {rows[-1, 3]}")
        collapse = float(rows[starts[np.argmax(counts == 1)], 0])
        _require(abs(collapse - expected[0]) <= dt, f"collapse at {collapse}, analytic {expected[0]}")
        summary = read_summary(out_dir)
        _require(summary.shape[0] == starts.size, "summary rows do not match the recorded substeps")

    jobs = [_run_job(workdir, "particles", cfg, check)]
    jobs += [_ot_job(workdir, k, rng) for k in range(3)]
    return jobs


_BUILDERS = {
    "cusp_readme": _cusp_readme,
    "cusp_quad_n4000": _cusp_quad,
    "power_n400": _power,
    "particles_ot": _particles_ot,
}


def build(name: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return _BUILDERS[name](seed, workdir, rng)
