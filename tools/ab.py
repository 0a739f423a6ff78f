"""Time one group of wgflow layers in this checkout and in a base, side by side.

Usage, from the root of a checkout, with the commit to compare against
unpacked at BASE (``git archive COMMIT | tar -x -C BASE``)::

    python3 tools/ab.py GROUP --base BASE > BENCH_GROUP.json

GROUP is one of ``exact``, ``pair_kernels``, ``particles``, ``simplex``,
``step`` and ``trajectory``; the function of that name below says what it
measures.  A group is a few parts, and each part is measured in a fresh
interpreter that imports ``wgflow`` from one tree's ``src`` and writes no
bytecode into either tree; the measuring code, ``perfbench`` and
``tests/oracles.py`` are this checkout's for both trees.  Each tree is
reached through a symlink in one temporary directory, the two of equal
length.  A pass measures
every part in both trees, one right after the other, and the tree that runs
first alternates from pass to pass (``schedule``).

Each tree's ``PASSES`` passes merge into one result (``merge``).  A number
under a key ``s`` or ending in ``_s`` is a time, and one ending in
``_faults`` or ``_kib`` a page-fault count or a peak in KiB: the least over
the passes is kept, as a busy host only adds to them, and beside each time
goes its spread, the largest pass over the least.  Every other value must
be the same in every pass, and every value under a key ending in ``sha256``
or ``_hex`` the same in both trees (``check_digests``).  The report gives,
for each time, the median and range over the passes of ``base_i /
change_i``, the speedup, and for each count or peak those of ``change_i -
base_i`` (``paired``): a ratio taken within one pass does not move with the
host's drift between passes, as the ratio of each tree's least time did.

Bases from commit ``e4297e9`` on are supported.  The ``BENCH_*.json`` files
taken before this harness were made by the per-group scripts of their
commit (``tools/bench_*.py`` with ``tools/two_trees.py``), which git history
holds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 4
ROUNDS = 5
TREES = ("base", "change")


def schedule(passes: int, parts) -> list:
    """``(pass, part, tree)`` in the order they run: every part in both
    trees, the first tree alternating from pass to pass."""
    return [
        (i, part, tree) for i in range(passes) for part in parts for tree in (TREES if i % 2 == 0 else TREES[::-1])
    ]


def flatten(result: dict, prefix: str = "") -> dict:
    """Every value of a nested result that is not a dict, by its ``/``-joined path of keys."""
    out = {}
    for key, value in result.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}/"))
        else:
            out[prefix + key] = value
    return out


def _kind(path: str) -> str | None:
    key = path.rsplit("/", 1)[-1]
    if key == "s" or key.endswith("_s"):
        return "time"
    if key.endswith(("_faults", "_kib")):
        return "count"
    return None


def merge(passes: list) -> dict:
    """One flat result from one tree's flat passes: the least of each time,
    count and peak, beside each time its ``_spread``; any other value must
    repeat."""
    merged = {}
    for path, first in passes[0].items():
        values = [p[path] for p in passes]
        if _kind(path):
            merged[path] = min(values)
            if _kind(path) == "time":
                merged[f"{path}_spread"] = max(values) / min(values)
        elif any(v != first for v in values):
            raise SystemExit(f"{path} differs between passes of one tree")
        else:
            merged[path] = first
    return merged


def check_digests(base: dict, change: dict) -> None:
    """Stop when a value under a key ending in ``sha256`` or ``_hex`` differs between the trees."""
    for path in sorted(base.keys() | change.keys()):
        if path.endswith(("sha256", "_hex")) and base.get(path) != change.get(path):
            raise SystemExit(f"{path} differs between the trees")


def paired(base_passes: list, change_passes: list) -> dict:
    """Median and range over the passes of each time's ``base_i / change_i``
    (``speedup``) and of each count's ``change_i - base_i``
    (``change_less_base``)."""
    out: dict = {"speedup": {}, "change_less_base": {}}
    for path in base_passes[0]:
        kind = _kind(path)
        if kind is None:
            continue
        pairs = [(b[path], c[path]) for b, c in zip(base_passes, change_passes)]
        if kind == "time":
            values, section = [b / c for b, c in pairs], "speedup"
        else:
            values, section = [c - b for b, c in pairs], "change_less_base"
        out[section][path] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return out


def _measure(group: str, part: str, root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.abspath(__file__), group, "--measure", part]
    return json.loads(subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout)


def compare(group: str, base_root: str) -> dict:
    """The report of ``group`` measured in ``base_root`` and in this checkout."""
    parts = GROUPS[group][0]
    runs = {tree: [{} for _ in range(PASSES)] for tree in TREES}
    with tempfile.TemporaryDirectory() as tmp:
        # each tree through a symlink of the same length: the length of a
        # checkout's path moves its readings (it changes PYTHONPATH, the
        # environment's size and the compiled code's file names)
        roots = {tree: os.path.join(tmp, str(i)) for i, tree in enumerate(TREES)}
        os.symlink(base_root, roots["base"])
        os.symlink(ROOT, roots["change"])
        for i, part, tree in schedule(PASSES, parts):
            runs[tree][i].update(flatten(_measure(group, part, roots[tree]), f"{part}/"))
    base, change = (merge(runs[tree]) for tree in TREES)
    check_digests(base, change)
    return {
        "command": f"python3 tools/ab.py {group} --base BASE",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"{PASSES} passes, each part of each pass in a fresh interpreter per tree, the first tree "
        f"alternating; a time per pass is the least of {ROUNDS} rounds of seconds per call (timeit autorange); "
        "results keep each tree's least time, count and peak over the passes, and the paired figures the median "
        "and range of the per-pass base/change time ratios and change-base differences",
        "results": {"base": base, "change": change},
        **paired(runs["base"], runs["change"]),
    }


# ---- what the groups share


def least_time(fn) -> float:
    """Seconds per call of ``fn``: the least over ``ROUNDS`` rounds, each of
    as many calls as take at least 0.2 s (``timeit``'s autorange).  On a
    shared host a round can only be slowed, so the least is the steadiest
    reading."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(t / number for t in timer.repeat(ROUNDS, number))


def _digest(a) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _job_configs(workload: str, seed: int) -> dict:
    """Every JSON input that ``perfbench/workloads.py`` writes for
    ``workload`` at ``seed``, by its name less ``.json``."""
    from perfbench.workloads import build

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        build(workload, seed, tmp)
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name)) as fh:
                out[name.removesuffix(".json")] = json.load(fh)
    return out


def _atoms(n: int):
    """Sorted uniform draws on [-1, 1] and masses uniform on [0.5, 1.5], normalised (seed 7)."""
    import numpy as np

    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-1.0, 1.0, n))
    ms = rng.uniform(0.5, 1.5, n)
    return xs, ms / ms.sum()


@contextlib.contextmanager
def counting(module, names):
    """Count the calls made through each of ``names`` of ``module`` while
    the block runs, in the dict it yields."""
    calls = dict.fromkeys(names, 0)
    originals = {name: getattr(module, name) for name in names}

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, counted(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def wgflow_run(config: dict) -> dict:
    """Peak RSS of one ``wgflow run`` process of ``config``, read two ways,
    and its summary's sha256.  ``max_rss_kib`` compiles ``wgflow`` from its
    source, as perfbench's processes do; ``bytecode_max_rss_kib`` reads
    bytecode compiled beforehand.  The launches share a temporary
    ``PYTHONPYCACHEPREFIX``, so the tree gets no ``__pycache__``: a first
    launch fills it, the second reads it, and the third reads it with the
    ``wgflow`` package's part removed, the rest (numpy, the standard
    library) still compiled.  Each process is spawned by
    ``perfbench/launch.py``, which is small: at ``exec`` Linux carries the
    spawning process's peak into the child's."""
    import wgflow

    package = os.path.normpath(os.path.dirname(os.path.abspath(wgflow.__file__)))
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as prefix:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [sys.executable, "-m", "wgflow.cli", "run", "--config", path, "--out", out, "--quiet"]
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        _launch(argv, out, env)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        bytecode = _launch(argv, out, env)
        shutil.rmtree(os.path.join(prefix, package.lstrip(os.sep)))
        source = _launch(argv, out, env)
        summary = _file_digest(os.path.join(out, "summary.csv"))
    return {"max_rss_kib": source, "bytecode_max_rss_kib": bytecode, "summary_sha256": summary}


def _launch(argv: list, out_dir: str, env: dict) -> int:
    """The ``ru_maxrss`` in KiB of ``argv`` run under ``env`` by
    ``perfbench/launch.py``; it must exit 0."""
    launch = os.path.join(ROOT, "perfbench", "launch.py")
    logs = [out_dir + ext for ext in (".out", ".err")]
    line = subprocess.run(
        [sys.executable, "-S", launch, *logs, "600", "--", *argv], env=env, check=True, capture_output=True, text=True
    ).stdout
    _, kib, code = line.split()
    if code != "0":
        raise SystemExit(f"wgflow run exited with {code}")
    return int(kib)


# ---- the groups: each takes the name of one of its parts and returns its figures

EXACT_ATOMS = (100, 200, 400, 800, 1600)


def exact(part: str) -> dict:
    """The attractive cusp's exact isotonic projection, from ``_atoms`` under
    the attractive unit cusp.  ``structure``: ``analytic._structure`` at
    t = 0.5, the exact projection of the transported quantile, for each atom
    count in ``EXACT_ATOMS``, and the sha256 of its ``repr``.  ``run_exact``:
    ``wgflow run`` in process with ``method: exact``, 400 atoms,
    ``t_end = 1`` and ``tau = 0.01`` (100 steps on 200 nodes), and the sha256
    of its two CSVs."""
    from wgflow import KIND_ATTRACTIVE, ExactSolution, Measure1D, cli
    from wgflow.analytic import _structure

    if part == "structure":
        out = {}
        for n in EXACT_ATOMS:
            sol = ExactSolution(KIND_ATTRACTIVE, Measure1D(atoms=tuple(zip(*_atoms(n)))), 1.0)
            structure = _structure(sol, 0.5)
            out[str(n)] = {
                "pieces": len(structure),
                "sha256": hashlib.sha256(repr(structure).encode()).hexdigest(),
                "s": least_time(lambda: _structure(sol, 0.5)),
            }
        return out
    atoms = [[float(x), float(m)] for x, m in zip(*_atoms(400))]
    config = {"potential": {"eta": 1.0}, "initial": {"atoms": atoms}, "method": "exact", "t_end": 1.0, "tau": 0.01}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "exact.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = ["run", "--config", path, "--out", out, "--quiet"]
        if cli.main(argv) != 0:
            raise SystemExit("wgflow run failed")
        return {
            "atoms": len(atoms),
            "steps": 100,
            "trajectory_sha256": _file_digest(os.path.join(out, "trajectory.csv")),
            "summary_sha256": _file_digest(os.path.join(out, "summary.csv")),
            "s": least_time(lambda: cli.main(argv)),
        }


def pair_kernels(part: str) -> dict:
    """The power-term pair kernels at n = ``part``: n sorted standard normal
    draws (seed 0) with weights 1/n, and W = |x|^p for each p below.
    ``energy_force_s``: the energy and cone force of ``pair_energy_force``;
    ``hessian_s``: one ``pair_hessian`` product with a fixed random
    vector."""
    import warnings

    import numpy as np
    from wgflow.potential import Potential, pair_energy_force, pair_hessian

    n = int(part)
    rng = np.random.default_rng(0)
    x = np.sort(rng.standard_normal(n))
    m = np.full(n, 1.0 / n)
    v = rng.standard_normal(n)
    out = {}
    for p in (1.25, 1.5, 3.0):
        W = Potential(terms=((1.0, p),))
        with warnings.catch_warnings():
            # a Hessian whose tie weight is inf (p > 2) warns on every call
            warnings.simplefilter("ignore", RuntimeWarning)
            out[str(p)] = {
                "energy_force_s": least_time(lambda: pair_energy_force(W, x, m, cone=True)),
                "hessian_s": least_time(lambda: pair_hessian(W, x, m, v)),
            }
    return out


def particles(part: str) -> dict:
    """A particle run under the attractive unit cusp, its grids on 200 nodes.
    ``particles_ot``: the particle job of the ``particles_ot`` workload
    (seed 1), five particles at ``dt = 1e-3`` up to ``t = 4``; ``p64``:
    ``_atoms(64)`` at ``dt = 1e-4`` up to ``t = 2``.  Timed: ``integrate``,
    ``tests/oracles.reference_integrate`` (the forward Euler loop, one
    ``ode_rhs`` call and one state per substep), which must agree with it bit
    for bit, ``quantile_trajectory`` and ``cli._write_particle_trajectory``.
    ``adapter_summary_peak_kib`` is the ``tracemalloc`` peak of
    ``quantile_trajectory`` followed by ``cli._write_summary`` of its result,
    and ``summary_writer_peak_kib`` the writer's own, above what the
    trajectory held when it started.  ``wgflow_run``: the ``particles_ot``
    particle config at ``dt = 1e-4`` (the ``trajectory`` group launches it at
    its own 1e-3)."""
    import tracemalloc

    import numpy as np
    import wgflow.particles
    from oracles import reference_integrate
    from wgflow import cli
    from wgflow.particles import ParticleState, integrate, quantile_trajectory
    from wgflow.potential import Potential

    config = _job_configs("particles_ot", 1)["particles"]
    if part == "wgflow_run":
        return {"dt_1e-4": wgflow_run(dict(config, dt=1e-4))}
    if part == "particles_ot":
        xs, ms = np.array(sorted(config["initial"]["atoms"])).T
        t_end, dt = config["t_end"], config["dt"]
    else:
        (xs, ms), t_end, dt = _atoms(64), 2.0, 1e-4
    cusp = Potential(eta=1.0)
    args = (cusp, ParticleState(xs, ms), t_end, dt)
    with counting(wgflow.particles, ("ode_rhs",)) as calls:
        history = integrate(*args)
    with counting(wgflow.particles, ("ode_rhs",)) as ref_calls:
        reference = reference_integrate(*args)
    if len(history) != len(reference) or any(
        a.time != b.time or a.positions.tobytes() != b.positions.tobytes() or a.masses.tobytes() != b.masses.tobytes()
        for a, b in zip(history, reference)
    ):
        raise SystemExit("integrate and reference_integrate disagree")
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        traj = quantile_trajectory(cusp, history, 200)
        held, adapter_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli._write_summary(os.path.join(tmp, "summary.csv"), traj)
        writer_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        path = os.path.join(tmp, "trajectory.csv")
        return {
            "particles": xs.size,
            "substeps": len(history) - 1,
            "segments": len(history.segments),
            "ode_rhs_calls": calls["ode_rhs"],
            "reference_ode_rhs_calls": ref_calls["ode_rhs"],
            "energies_sha256": _digest(traj.energies),
            "step_costs_sha256": _digest(traj.step_costs),
            "adapter_summary_peak_kib": max(adapter_peak, writer_peak) / 1024.0,
            "summary_writer_peak_kib": (writer_peak - held) / 1024.0,
            "integrate_s": least_time(lambda: integrate(*args)),
            "reference_integrate_s": least_time(lambda: reference_integrate(*args)),
            "quantile_trajectory_s": least_time(lambda: quantile_trajectory(cusp, history, 200)),
            "write_trajectory_s": least_time(lambda: cli._write_particle_trajectory(path, history)),
        }


def _simplex_instances(part: str) -> list:
    """The ``(p, q, cost)`` triples of the instance set ``part``."""
    import numpy as np

    def cost(xs, ys):
        d = np.asarray(xs)[:, None, :] - np.asarray(ys)[None, :, :]
        return np.sum(d * d, axis=2)

    def near_tied(rng):
        m, n = (int(k) for k in rng.integers(8, 16, size=2))
        c = rng.integers(0, 4, (m, n)) * 1e6 + rng.integers(0, 3, (m, n)) * 0.1
        return np.full(m, 1.0 / m), np.full(n, 1.0 / n), c

    def dyadic(rng):
        c = rng.integers(0, 3, size=rng.integers(2, 10, size=2)).astype(float)
        masses = []
        for k in c.shape:
            w = rng.integers(1, 5, size=k).astype(float)
            total = 2.0 ** np.ceil(np.log2(w.sum()))
            w[0] += total - w.sum()
            masses.append(w / total)
        return masses[0], masses[1], c

    if part == "particles_ot":
        out = []
        for seed in range(1, 11):
            configs = _job_configs("particles_ot", seed)
            for k in range(3):
                src, snk = configs[f"ot{k}"]["sources"], configs[f"ot{k}"]["sinks"]
                p, q = (np.array([w for _, w in side]) for side in (src, snk))
                out.append((p, q, cost([x for x, _ in src], [x for x, _ in snk])))
        return out
    if part == "near_tied":
        rng = np.random.default_rng(16)
        return [near_tied(rng) for _ in range(40)]
    if part == "tied_integer":
        rng = np.random.default_rng(17)
        return [dyadic(rng) for _ in range(200)]
    if part == "n160":
        rng = np.random.default_rng(18)
        p, q = 0.5 + rng.random(160), 0.5 + rng.random(160)
        return [(p / p.sum(), q / q.sum(), cost(rng.random((160, 2)), rng.random((160, 2))))]
    return [near_tied(np.random.default_rng(1))]


def simplex(part: str) -> dict:
    """``transport.solve_primal`` on one set of instances:
    ``particles_ot``, the three 40x40 instances of the ``particles_ot``
    workload for each of seeds 1-10; ``near_tied``, 40 instances with uniform
    masses, 8-15 rows and columns and costs ``k*1e6 + l*0.1``, k in 0..3 and
    l in 0..2 (seed 16); ``tied_integer``, 200 instances with 2-9 rows and
    columns, integer costs in 0..2 and masses on a dyadic lattice, which
    force degenerate pivots (seed 17); ``n160``, one 160x160 instance drawn
    as the workload draws its 40x40 ones (seed 18); ``near_tied_11x12``, the
    11x12 near-tied instance of ``default_rng(1)``, which ran into the pivot
    cap under an absolute threshold.  Pivots are ``transport._hang`` calls
    less the ``m + n - 1`` that build the start; ``solve_s`` is the seconds
    per solve.  No solve may reach the pivot cap, and each objective must
    agree with HiGHS (``tests/oracles.linprog_transport_minimum``) to
    ``1e-12`` relative to ``max(|objective|, |linprog|)``."""
    import numpy as np
    from oracles import linprog_transport_minimum
    from wgflow import DiscreteInstance, PivotCapReached, solve_primal, transport

    triples = _simplex_instances(part)
    insts = [DiscreteInstance(np.zeros((p.size, 1)), p, np.zeros((q.size, 1)), q, c) for p, q, c in triples]
    pivots, capped, abs_err, rel_err = [], 0, 0.0, 0.0
    for inst, triple in zip(insts, triples):
        try:
            with counting(transport, ("_hang",)) as calls:
                obj = solve_primal(inst).objective
        except PivotCapReached:
            capped += 1
            continue
        pivots.append(calls["_hang"] - sum(inst.cost.shape) + 1)
        lp = linprog_transport_minimum(*triple)
        abs_err = max(abs_err, abs(obj - lp))
        rel_err = max(rel_err, abs(obj - lp) / max(abs(obj), abs(lp)) if obj != lp else 0.0)
    if capped or rel_err > 1e-12:
        raise SystemExit(f"{part}: {capped} capped, relative error {rel_err:.3e} against linprog")
    return {
        "instances": len(insts),
        "capped": capped,
        "pivots": sum(pivots),
        "max_pivots": max(pivots),
        "max_abs_err": abs_err,
        "max_rel_err": rel_err,
        "solve_s": least_time(lambda: [solve_primal(inst) for inst in insts]) / len(insts),
    }


STEP_KERNELS = ("pair_energy_force", "pair_hessian", "pair_energy")


def step(part: str) -> dict:
    """``jko.run_flow`` of a seed-0 job of ``perfbench/workloads.py``:
    ``power``, the ``power_n400`` workload (``|x|^1.5`` with a cusp, 10
    steps on 400 points), or ``readme``, the ``cusp_readme`` workload's
    README config (1000 steps on 200 points).  The harness spawns this
    interpreter before any numpy is loaded, so its figures are its own.  From
    the first ``run_flow`` call: ``minor_faults``, the minor page faults it
    takes, and ``maxrss_kib``, the interpreter's ``ru_maxrss`` after it.
    Then ``run_flow_s``, and ``calls``, how often one more call invokes each
    kernel of ``STEP_KERNELS`` through the names ``wgflow.jko`` binds."""
    import resource

    from wgflow import jko
    from wgflow.cli import ExperimentConfig

    workload = {"power": "power_n400", "readme": "cusp_readme"}[part]
    cfg = ExperimentConfig.from_json_dict(_job_configs(workload, 0)[part])
    args = (cfg.potential, cfg.initial, cfg.jko_config())
    before = resource.getrusage(resource.RUSAGE_SELF)
    traj = jko.run_flow(*args)
    after = resource.getrusage(resource.RUSAGE_SELF)
    run_flow_s = least_time(lambda: jko.run_flow(*args))
    with counting(jko, STEP_KERNELS) as calls:
        jko.run_flow(*args)
    return {
        "shape": list(traj.grids.shape),
        "grids_sha256": _digest(traj.grids),
        "energies_sha256": _digest(traj.energies),
        "step_costs_sha256": _digest(traj.step_costs),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "maxrss_kib": after.ru_maxrss,
        "run_flow_s": run_flow_s,
        "calls": calls,
    }


# the workload and seed of each run job that the trajectory group launches
TRAJECTORY_RUNS = {
    "readme": ("cusp_readme", 0),
    "quad": ("cusp_quad_n4000", 0),
    "power": ("power_n400", 0),
    "particles": ("particles_ot", 1),
}


def trajectory(part: str) -> dict:
    """Energies, step costs and weak-residual velocities of a trajectory.
    ``particles``: ``particles.quantile_trajectory`` of the particle job of
    the ``particles_ot`` workload (seed 1) on 200 nodes; ``readme``:
    ``jko.run_flow`` of the README config (``cusp_readme``, seed 0), 1,001
    grids of 200 values.  Timed: ``trajectory``, ``jko._trajectory`` of the
    grids read as slices of one array, which takes their energies and step
    costs; ``energies``, ``pair_energy`` once on the array of grids; for the
    README, ``weak_residual`` with the bumps ``wgflow run`` uses, and
    ``velocities``, its midpoint velocities alone, ``-pair_force(...,
    cone=False)`` in one call on the midpoint grids.  ``wgflow_run``: one
    ``wgflow run`` (``wgflow_run``) of each job of ``TRAJECTORY_RUNS``, and
    of the README config to ``t = 5`` (``readme_5001``: 5,001 records where
    the README job writes 1,001)."""
    import numpy as np
    from wgflow.analytic import default_bump_library, weak_residual
    from wgflow.cli import ExperimentConfig
    from wgflow.jko import _trajectory, run_flow
    from wgflow.particles import ParticleState, integrate, quantile_trajectory
    from wgflow.potential import pair_energy, pair_force

    configs = {name: _job_configs(*job)[name] for name, job in TRAJECTORY_RUNS.items()}
    if part == "wgflow_run":
        configs["readme_5001"] = dict(configs["readme"], t_end=5.0)
        return {name: wgflow_run(config) for name, config in configs.items()}
    cfg = ExperimentConfig.from_json_dict(configs[part])
    W = cfg.potential
    if part == "particles":
        atoms = sorted(cfg.initial.atoms)
        history = integrate(W, ParticleState([x for x, _ in atoms], [m for _, m in atoms]), cfg.t_end, cfg.dt)
        traj = quantile_trajectory(W, history, cfg.n)
    else:
        traj = run_flow(W, cfg.initial, cfg.jko_config())
    grids = traj.grids
    n = grids.shape[1]
    m = np.full(n, 1.0 / n)
    read = lambda lo, hi: grids[lo:hi]  # noqa: E731
    out = {
        "shape": list(grids.shape),
        "energies_sha256": _digest(_trajectory(W, traj.times, read, n).energies),
        "trajectory_s": least_time(lambda: _trajectory(W, traj.times, read, n)),
        "energies_s": least_time(lambda: pair_energy(W, grids, m)),
    }
    if part == "readme":
        lo, hi = float(grids.min()), float(grids.max())
        pad = 0.1 * max(hi - lo, 1.0)
        t1 = float(traj.times[-1])
        bumps = default_bump_library((lo - pad, hi + pad), (0.05 * t1, 0.95 * t1))
        mid = 0.5 * (grids[:-1] + grids[1:])
        out.update(
            weak_residual_hex=float(weak_residual(traj, W, bumps)).hex(),
            velocities_sha256=_digest(-pair_force(W, mid, m, cone=False)),
            weak_residual_s=least_time(lambda: weak_residual(traj, W, bumps)),
            velocities_s=least_time(lambda: -pair_force(W, mid, m, cone=False)),
        )
    return out


# name: (parts, measure), a fresh interpreter measuring each part
GROUPS = {
    "exact": (("structure", "run_exact"), exact),
    "pair_kernels": (("200", "400", "1000", "4000"), pair_kernels),
    "particles": (("particles_ot", "p64", "wgflow_run"), particles),
    "simplex": (("particles_ot", "near_tied", "tied_integer", "n160", "near_tied_11x12"), simplex),
    "step": (("power", "readme"), step),
    "trajectory": (("particles", "readme", "wgflow_run"), trajectory),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("group", choices=GROUPS, help="the group of layers to time")
    parser.add_argument("--base", help="checkout root of the commit to compare against")
    parser.add_argument("--measure", metavar="PART", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]
        json.dump(GROUPS[args.group][1](args.measure), sys.stdout)
        return 0
    if args.base is None:
        parser.error("--base is required")
    json.dump(compare(args.group, os.path.abspath(args.base)), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
