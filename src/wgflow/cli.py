"""Command-line front end.

Subcommands: ``run`` executes an experiment described by a JSON config and
writes trajectory/summary CSVs plus a manifest echoing every resolved
parameter; ``w2`` prints the exact distance between two measure files;
``ot`` solves a discrete transport instance and prints the primal and dual
objectives with their gap.

Exit codes: 0 success, 2 invalid input, 3 solver failure: the implicit
step's inner solver for ``run``, or the transportation simplex at its pivot
cap for ``ot``.  CSV floats are written with 17 significant digits and '.'
decimals so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .measures import DomainError, Measure1D, finite_number, midpoint_nodes, to_quantile_grid

if TYPE_CHECKING:
    from .jko import FlowTrajectory, JkoConfig
    from .particles import ParticleHistory
    from .potential import Potential

# Each command imports only the modules it runs: ``ot`` and ``w2`` load
# ``measures`` and ``transport``; ``run`` loads ``measures``, ``potential``
# and ``jko``, with ``particles`` for a particle run and ``analytic`` for an
# exact run or the weak residual.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_METHODS = ("jko", "particles", "exact")
# metric_derivative is accepted and ignored: summary.csv always carries it
_TOGGLES = ("energy_identity", "weak_residual", "metric_derivative")
_DIAGNOSTICS = _TOGGLES + ("evi_sigma",)


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmts(values):
    """``_fmt`` of every entry of ``values``, in order, as a lazy iterator."""
    return map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist())


def _significant_digits(value: float, digits: int) -> str:
    """Fixed-point rendering with a given count of significant digits."""
    if value == 0.0:
        return "0." + "0" * digits
    exponent = math.floor(math.log10(abs(value)))
    decimals = max(0, digits - 1 - exponent)
    return f"{value:.{decimals}f}"


def _finite_or_none(x: float) -> float | None:
    """``x``, or None (JSON null) when it is not finite."""
    return x if math.isfinite(x) else None


def _error_record(kind: str, code: int, **extra) -> int:
    print(json.dumps({"error": kind, "exit_code": code, **extra}), file=sys.stderr)
    return code


def _number(d: dict, key: str, default) -> float:
    try:
        return finite_number(d.get(key, default), key)
    except DomainError as exc:
        raise ConfigError(key, str(exc))


def _object(value, name: str, keys) -> dict:
    """``value`` if it is a JSON object with keys in ``keys``, else refused as field ``name``."""
    if not isinstance(value, dict):
        raise ConfigError(name, f"must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(name, f"unknown key {key!r}")
    return value


def _parse(name: str, from_json_dict, value):
    """``from_json_dict(value)``, refused as field ``name`` if that raises."""
    try:
        return from_json_dict(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(name, str(exc))


def _integer(d: dict, key: str, default) -> int:
    value = _number(d, key, default)
    if not value.is_integer():
        raise ConfigError(key, f"must be an integer, got {d.get(key)!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Validated run description with every parameter resolved."""

    potential: Potential
    initial: Measure1D
    method: str
    tau: float = 1e-3
    n: int = 200
    dt: float = 1e-4
    t_end: float = 1.0
    inner_tol: float | None = None
    inner_max_iters: int = 500
    out_dir: str = "out"
    diagnostics: dict = field(default_factory=dict)

    def jko_config(self) -> JkoConfig:
        from .jko import JkoConfig

        return JkoConfig(
            tau=self.tau,
            n=self.n,
            t_end=self.t_end,
            inner_tol=self.inner_tol,
            inner_max_iters=self.inner_max_iters,
        )

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        from .potential import Potential

        _object(d, "config", [f.name for f in fields(ExperimentConfig)])
        for key in ("potential", "initial", "method"):
            if key not in d:
                raise ConfigError(key, "missing required field")
        pot = _parse("potential", Potential.from_json_dict, d["potential"])
        init = _parse("initial", Measure1D.from_json_dict, d["initial"])
        method = d["method"]
        if method not in _METHODS:
            raise ConfigError("method", f"must be one of {_METHODS}, got {method!r}")
        cfg = ExperimentConfig(
            potential=pot,
            initial=init,
            method=method,
            tau=_number(d, "tau", 1e-3),
            n=_integer(d, "n", 200),
            dt=_number(d, "dt", 1e-4),
            t_end=_number(d, "t_end", 1.0),
            inner_tol=None if d.get("inner_tol") is None else _number(d, "inner_tol", None),
            inner_max_iters=_integer(d, "inner_max_iters", 500),
            out_dir=d.get("out_dir", "out"),
            diagnostics=dict(_object(d.get("diagnostics", {}), "diagnostics", _DIAGNOSTICS)),
        )
        cfg.validate()
        return cfg

    def validate(self):
        from .potential import convexity_certificate

        if self.t_end <= 0.0:
            raise ConfigError("t_end", "must be positive")
        if self.n < 1:
            raise ConfigError("n", "must be a positive integer")
        if self.inner_tol is not None and self.inner_tol <= 0.0:
            raise ConfigError("inner_tol", "must be positive")
        if self.inner_max_iters < 1:
            raise ConfigError("inner_max_iters", "must be at least 1")
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir", f"must be a string, got {self.out_dir!r}")
        if self.method == "jko":
            if not self.potential.jko_eligible:
                raise ConfigError(
                    "potential", "growth exceeds quadratic; jko method refused"
                )
            try:
                cert = convexity_certificate(self.potential)
            except DomainError as exc:
                raise ConfigError("potential", str(exc))
            try:
                jko_cfg = self.jko_config()
                jko_cfg.validate_step_bound(cert)
                jko_cfg.step_count()
            except DomainError as exc:
                raise ConfigError("tau", str(exc))
        elif self.method == "particles":
            if self.dt <= 0.0:
                raise ConfigError("dt", "must be positive")
            if self.initial.pieces:
                raise ConfigError(
                    "initial", "particle runs need a purely atomic initial measure"
                )
        elif self.method == "exact":
            pot = self.potential
            if pot.beta != 0.0 or pot.terms or pot.eta == 0.0:
                raise ConfigError(
                    "potential",
                    "exact solutions exist for the pure cusp only (eta != 0, "
                    "beta = 0, no power terms)",
                )
            if self.tau <= 0.0:
                raise ConfigError("tau", "must be positive (sampling interval)")
        for key, value in self.diagnostics.items():
            if key in _TOGGLES and not isinstance(value, bool):
                raise ConfigError(f"diagnostics.{key}", f"must be true or false, got {value!r}")
        sigma = self.diagnostics.get("evi_sigma")
        if sigma is not None:
            _parse("diagnostics.evi_sigma", Measure1D.from_json_dict, sigma)

    def resolved_dict(self) -> dict:
        from .jko import INNER_TOL_PER_POINT

        return {
            "potential": self.potential.to_json_dict(),
            "initial": self.initial.to_json_dict(),
            "method": self.method,
            "tau": self.tau,
            "n": self.n,
            "dt": self.dt,
            "t_end": self.t_end,
            "inner_tol": INNER_TOL_PER_POINT * self.n if self.inner_tol is None else self.inner_tol,
            "inner_max_iters": self.inner_max_iters,
            "out_dir": self.out_dir,
            "diagnostics": {
                "energy_identity": self.diagnostics.get("energy_identity", False),
                "evi_sigma": self.diagnostics.get("evi_sigma"),
                "weak_residual": self.diagnostics.get("weak_residual", False),
            },
        }


# Rows per format template, and records per block of formatted times, of the
# CSV writers.  A template of all n rows left a cusp+quadratic run at n = 4000
# with a peak RSS 0.6 MB higher; 256 rows keep each string near 10 KB.
_TEMPLATE_ROWS = 256


def _templates(form: str, constants) -> list:
    """``(cut, template)`` per chunk ``cut`` of at most ``_TEMPLATE_ROWS`` rows:
    ``form.format(i, constants[i])`` of each row ``i`` of the chunk, joined."""
    out = []
    for lo in range(0, len(constants), _TEMPLATE_ROWS):
        cut = slice(lo, lo + _TEMPLATE_ROWS)
        out.append((cut, "".join(map(form.format, range(lo, len(constants)), constants[cut].tolist()))))
    return out


def _write_records(path: str, head: str, parts):
    """Write ``head``, then record k of each ``(times, rows, templates)`` of ``parts``:
    each template, its ``"\\0"`` the time ``times[k]``, ``%`` its cut of ``rows[k]``."""
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for times, rows, templates in parts:
            for lo in range(0, len(times), _TEMPLATE_ROWS):
                block = slice(lo, lo + _TEMPLATE_ROWS)
                for ts, row in zip(_fmts(times[block]), rows[block]):
                    fh.writelines(t.replace("\0", ts) % tuple(row[cut].tolist()) for cut, t in templates)


def _write_grid_trajectory(path: str, traj: FlowTrajectory):
    # one part per block of rows that ``row_blocks`` reads
    templates = _templates("\0,{},{:.17g},%.17g\n", midpoint_nodes(traj.grid_size))
    parts = ((traj.times[s], block[: s.stop - s.start], templates) for s, _, block in traj.row_blocks())
    _write_records(path, "t,i,s_i,X_i\n", parts)


def _write_particle_trajectory(path: str, history: ParticleHistory):
    times = np.split(history.times, np.cumsum([len(x) for _, x in history.segments[:-1]]))
    parts = ((t, x, _templates("\0,{},%.17g,{:.17g}\n", m)) for t, (m, x) in zip(times, history.segments))
    _write_records(path, "t,i,x_i,m_i\n", parts)


def _write_summary(path: str, traj: FlowTrajectory):
    # the first state has no step behind it: its speed and cost are empty
    head = "t,energy,metric_derivative,step_cost\n%.17g,%.17g,,\n" % (traj.times[0], traj.energies[0])
    t, e, v, c = traj.times[1:], traj.energies[1:], traj.speeds, traj.step_costs
    # a part per ``_TEMPLATE_ROWS`` steps: the columns are never stacked whole
    cuts = (slice(lo, lo + _TEMPLATE_ROWS) for lo in range(0, c.size, _TEMPLATE_ROWS))
    parts = ((t[s], np.column_stack((e[s], v[s], c[s])), [(slice(None), "\0,%.17g,%.17g,%.17g\n")]) for s in cuts)
    _write_records(path, head, parts)


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exact_trajectory(cfg: ExperimentConfig) -> FlowTrajectory:
    from .analytic import KIND_ATTRACTIVE, KIND_REPULSIVE, ExactSolution, exact_grid
    from .jko import _spill, _trajectory

    pot = cfg.potential
    kind = KIND_REPULSIVE if pot.eta < 0.0 else KIND_ATTRACTIVE
    sol = ExactSolution(kind=kind, init=cfg.initial, eta_abs=abs(pot.eta))
    steps = max(1, round(cfg.t_end / cfg.tau))
    times = np.arange(steps + 1) * (cfg.t_end / steps)
    read = _spill((exact_grid(sol, t, cfg.n).values for t in times.tolist()), cfg.n)
    return _trajectory(pot, times, read, cfg.n)


def _run_diagnostics(cfg: ExperimentConfig, traj: FlowTrajectory) -> dict:
    from .jko import energy_identity_residual, evi_residual

    out: dict = {}
    if cfg.diagnostics.get("energy_identity", False):
        out["energy_identity_residual"] = energy_identity_residual(cfg.potential, traj)
    sigma_spec = cfg.diagnostics.get("evi_sigma")
    if sigma_spec is not None:
        sigma = to_quantile_grid(Measure1D.from_json_dict(sigma_spec), traj.grid_size)
        out["evi_max_residual"] = float(
            np.max(evi_residual(cfg.potential, traj, sigma))
        )
    if cfg.diagnostics.get("weak_residual", False):
        from .analytic import default_bump_library, weak_residual

        # a block at a time: a particle trajectory builds its rows when read
        lo, hi = math.inf, -math.inf
        for _, _, block in traj.row_blocks():
            lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
        pad = 0.1 * max(hi - lo, 1.0)
        t1 = float(traj.times[-1])
        bumps = default_bump_library((lo - pad, hi + pad), (0.05 * t1, 0.95 * t1))
        out["weak_residual"] = weak_residual(traj, cfg.potential, bumps)
    return out


def cmd_run(config_path: str, out_dir: str | None = None, seed: int | None = None, quiet: bool = False) -> int:
    # loading ``transport``, ``particles`` and ``analytic`` up front cost the
    # cusp+quadratic job 0.41 MB of peak RSS, compiling from source
    from .jko import ConvergenceFailure, run_flow

    try:
        with open(config_path) as fh:
            raw = json.load(fh)
        cfg = ExperimentConfig.from_json_dict(raw)
    except (OSError, json.JSONDecodeError) as exc:
        return _error_record("config", EXIT_CONFIG, message=str(exc))
    except ConfigError as exc:
        return _error_record("config", EXIT_CONFIG, field=exc.field_name, message=str(exc))
    if out_dir is not None:
        cfg.out_dir = out_dir
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        return _error_record("output", EXIT_CONFIG, field="out_dir", message=str(exc))
    # a run that spills its states refuses an unusable TMPDIR, not using /tmp
    tmp = os.environ.get("TMPDIR")
    if cfg.method != "particles" and tmp and not (os.path.isdir(tmp) and os.access(tmp, os.W_OK | os.X_OK)):
        return _error_record("output", EXIT_CONFIG, file=tmp, message="TMPDIR is not a writable directory")

    # the output file being written; None while a run spills its states
    target = None

    def output(name: str) -> str:
        nonlocal target
        target = os.path.join(cfg.out_dir, name)
        return target

    try:
        if cfg.method == "jko":
            traj = run_flow(cfg.potential, cfg.initial, cfg.jko_config())
        elif cfg.method == "particles":
            from .particles import ParticleState, integrate, quantile_trajectory

            # particles start sorted, one per position: repeats of a position
            # merge, their masses summed in the order the config lists them
            first = operator.itemgetter(0)
            groups = itertools.groupby(sorted(cfg.initial.atoms, key=first), key=first)
            merged = [(x, sum(m for _, m in atoms)) for x, atoms in groups]
            st0 = ParticleState([x for x, _ in merged], [m for _, m in merged], 0.0)
            history = integrate(cfg.potential, st0, cfg.t_end, cfg.dt)
            _write_particle_trajectory(output("trajectory.csv"), history)
            traj = quantile_trajectory(cfg.potential, history, cfg.n)
        else:
            traj = _exact_trajectory(cfg)
        _write_summary(output("summary.csv"), traj)
        diagnostics = _run_diagnostics(cfg, traj)
        if diagnostics:
            _write_json(output("diagnostics.json"), diagnostics)
        if cfg.method != "particles":
            # written last, the grid CSV's short-lived strings reuse heap that the
            # diagnostics freed; written before them, it left peak RSS higher
            _write_grid_trajectory(output("trajectory.csv"), traj)
        outputs = ["trajectory.csv", "summary.csv", "manifest.json"] + (["diagnostics.json"] if diagnostics else [])
        manifest = {"config": cfg.resolved_dict(), "seed": seed, "version": __version__, "outputs": sorted(outputs)}
        _write_json(output("manifest.json"), manifest)
    except ConvergenceFailure as failure:
        return _error_record(
            "convergence",
            EXIT_SOLVER,
            step=failure.step_index,
            # null when the step failed before any iterate was accepted
            residual=_finite_or_none(failure.residual),
            residuals=[_finite_or_none(r) for r in failure.residuals],
            message=str(failure),
        )
    except DomainError as exc:
        return _error_record("domain", EXIT_CONFIG, message=str(exc))
    except OSError as exc:
        # an output file, or the spill in the temporary directory (None when
        # no directory could be used)
        return _error_record("output", EXIT_CONFIG, file=target or tempfile.tempdir, message=str(exc))
    if not quiet:
        final_energy = traj.energies[-1]
        print(f"wrote {cfg.out_dir}: final t={_fmt(traj.times[-1])} energy={_fmt(final_energy)}")
    return EXIT_OK


def cmd_w2(path_a: str, path_b: str) -> int:
    try:
        with open(path_a) as fh:
            ma = Measure1D.from_json_dict(json.load(fh))
        with open(path_b) as fh:
            mb = Measure1D.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, DomainError, KeyError, TypeError, ValueError) as exc:
        return _error_record("parse", EXIT_CONFIG, message=str(exc))
    from .transport import w2_exact_discrete

    value = w2_exact_discrete(ma, mb)
    print(_significant_digits(value, 12))
    return EXIT_OK


def cmd_ot(path: str, plan_out: str | None = None) -> int:
    from .transport import DiscreteInstance, PivotCapReached, solve_dual, solve_primal

    try:
        with open(path) as fh:
            inst = DiscreteInstance.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, DomainError, KeyError, TypeError, ValueError) as exc:
        return _error_record("parse", EXIT_CONFIG, message=str(exc))
    try:
        plan = solve_primal(inst)
        dual = solve_dual(inst, plan)
    except PivotCapReached as exc:
        return _error_record("simplex", EXIT_SOLVER, pivots=exc.pivots, message=str(exc))
    except DomainError as exc:
        return _error_record("domain", EXIT_CONFIG, message=str(exc))
    if plan_out is not None:
        # written before anything is printed, so a refused path prints nothing
        try:
            with open(plan_out, "w", newline="") as fh:
                for row in plan.x:
                    fh.write(",".join(_fmts(row)) + "\n")
        except OSError as exc:
            return _error_record("output", EXIT_CONFIG, field="plan_out", message=str(exc))
    gap = abs(plan.objective - dual.objective)
    print(f"primal {_fmt(plan.objective)}")
    print(f"dual {_fmt(dual.objective)}")
    print(f"gap {_fmt(gap)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgflow",
        description="quantile-coordinate interaction flows, transport, oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")

    p_w2 = sub.add_parser("w2", help="exact distance between two measure files")
    p_w2.add_argument("measure_a")
    p_w2.add_argument("measure_b")

    p_ot = sub.add_parser("ot", help="solve a discrete transport instance")
    p_ot.add_argument("instance")
    p_ot.add_argument("--plan-out", default=None, help="write the plan matrix as CSV")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, out_dir=args.out, seed=args.seed, quiet=args.quiet)
    if args.command == "w2":
        return cmd_w2(args.measure_a, args.measure_b)
    return cmd_ot(args.instance, plan_out=args.plan_out)


if __name__ == "__main__":
    sys.exit(main())
