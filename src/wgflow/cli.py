"""Command-line front end.

Subcommands: ``run`` executes an experiment described by a JSON config and
writes trajectory/summary CSVs plus a manifest echoing every resolved
parameter; ``w2`` prints the exact distance between two measure files;
``ot`` solves a discrete transport instance and prints the primal and dual
objectives with their gap.

Exit codes: 0 success, 2 invalid input, 3 inner-solver failure.  CSV floats
are written with 17 significant digits and '.' decimals so identical runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analytic import (
    ExactSolution,
    KIND_ATTRACTIVE,
    KIND_REPULSIVE,
    default_bump_library,
    exact_grid,
    metric_derivative_estimate,
    weak_residual,
)
from .jko import (
    ConvergenceFailure,
    FlowTrajectory,
    JkoConfig,
    _trajectory,
    energy_identity_residual,
    evi_residual,
    run_flow,
)
from .measures import DomainError, Measure1D, to_quantile_grid
from .particles import ParticleState, integrate, quantile_trajectory
from .potential import Potential, convexity_certificate
from .transport import DiscreteInstance, solve_dual, solve_primal, w2_exact_discrete

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_METHODS = ("jko", "particles", "exact")


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
    record = {"error": kind, "exit_code": code}
    record.update(extra)
    print(json.dumps(record), file=sys.stderr)
    return code


def _number(d: dict, key: str, default) -> float:
    raw = d.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(key, f"must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value


def _integer(d: dict, key: str, default) -> int:
    value = _number(d, key, default)
    if isinstance(d.get(key), bool) or not value.is_integer():
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
        return JkoConfig(
            tau=self.tau,
            n=self.n,
            t_end=self.t_end,
            inner_tol=self.inner_tol,
            inner_max_iters=self.inner_max_iters,
        )

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        for key in ("potential", "initial", "method"):
            if key not in d:
                raise ConfigError(key, "missing required field")
        try:
            pot = Potential.from_json_dict(d["potential"])
        except (DomainError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError("potential", str(exc))
        try:
            init = Measure1D.from_json_dict(d["initial"])
        except (DomainError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError("initial", str(exc))
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
            out_dir=str(d.get("out_dir", "out")),
            diagnostics=dict(d.get("diagnostics", {})),
        )
        cfg.validate()
        return cfg

    def validate(self):
        if self.t_end <= 0.0:
            raise ConfigError("t_end", "must be positive")
        if self.n < 1:
            raise ConfigError("n", "must be a positive integer")
        if self.inner_tol is not None and self.inner_tol <= 0.0:
            raise ConfigError("inner_tol", "must be positive")
        if self.inner_max_iters < 1:
            raise ConfigError("inner_max_iters", "must be at least 1")
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
        sigma = self.diagnostics.get("evi_sigma")
        if sigma is not None:
            try:
                Measure1D.from_json_dict(sigma)
            except (DomainError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError("diagnostics.evi_sigma", str(exc))

    def resolved_dict(self) -> dict:
        return {
            "potential": self.potential.to_json_dict(),
            "initial": self.initial.to_json_dict(),
            "method": self.method,
            "tau": self.tau,
            "n": self.n,
            "dt": self.dt,
            "t_end": self.t_end,
            "inner_tol": 1e-10 * self.n if self.inner_tol is None else self.inner_tol,
            "inner_max_iters": self.inner_max_iters,
            "out_dir": self.out_dir,
            "diagnostics": {
                "energy_identity": bool(self.diagnostics.get("energy_identity", False)),
                "evi_sigma": self.diagnostics.get("evi_sigma"),
                "weak_residual": bool(self.diagnostics.get("weak_residual", False)),
            },
        }


def _write_grid_trajectory(path: str, traj: FlowTrajectory):
    # the ",i,s_i," columns depend on the grid size only
    columns: dict[int, list[str]] = {}
    with open(path, "w", newline="") as fh:
        fh.write("t,i,s_i,X_i\n")
        for ts, grid in zip(_fmts(traj.times), traj.states):
            if grid.n not in columns:
                columns[grid.n] = [f",{i},{s}," for i, s in enumerate(_fmts(grid.nodes))]
            rows = zip(columns[grid.n], _fmts(grid.values))
            fh.writelines(ts + c + x + "\n" for c, x in rows)


def _write_particle_trajectory(path: str, history: list[ParticleState]):
    with open(path, "w", newline="") as fh:
        fh.write("t,i,x_i,m_i\n")
        for st, ts in zip(history, _fmts([st.time for st in history])):
            rows = enumerate(zip(_fmts(st.positions), _fmts(st.masses)))
            fh.writelines(f"{ts},{i},{x},{m}\n" for i, (x, m) in rows)


def _write_summary(path: str, traj: FlowTrajectory):
    speeds = metric_derivative_estimate(traj) if len(traj.states) > 1 else np.array([])
    # the first state has no step behind it: its speed and cost are empty
    rows = zip(
        _fmts(traj.times),
        _fmts(traj.energies),
        itertools.chain([""], _fmts(speeds)),
        itertools.chain([""], _fmts(traj.step_costs)),
    )
    with open(path, "w", newline="") as fh:
        fh.write("t,energy,metric_derivative,step_cost\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _exact_trajectory(cfg: ExperimentConfig) -> FlowTrajectory:
    pot = cfg.potential
    kind = KIND_REPULSIVE if pot.eta < 0.0 else KIND_ATTRACTIVE
    sol = ExactSolution(kind=kind, init=cfg.initial, eta_abs=abs(pot.eta))
    steps = max(1, round(cfg.t_end / cfg.tau))
    times = np.arange(steps + 1) * (cfg.t_end / steps)
    states = [exact_grid(sol, float(t), cfg.n) for t in times]
    return _trajectory(pot, times, states)


def _run_diagnostics(cfg: ExperimentConfig, traj: FlowTrajectory) -> dict:
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
        lo = min(float(s.values.min()) for s in traj.states)
        hi = max(float(s.values.max()) for s in traj.states)
        pad = 0.1 * max(hi - lo, 1.0)
        t1 = float(traj.times[-1])
        bumps = default_bump_library((lo - pad, hi + pad), (0.05 * t1, 0.95 * t1))
        out["weak_residual"] = weak_residual(traj, cfg.potential, bumps)
    return out


def cmd_run(config_path: str, out_dir: str | None = None, seed: int | None = None, quiet: bool = False) -> int:
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
    os.makedirs(cfg.out_dir, exist_ok=True)

    try:
        if cfg.method == "jko":
            traj = run_flow(cfg.potential, cfg.initial, cfg.jko_config())
            _write_grid_trajectory(os.path.join(cfg.out_dir, "trajectory.csv"), traj)
        elif cfg.method == "particles":
            # particles start sorted, one per position: repeats of a position
            # merge, their masses summed in the order the config lists them
            first = operator.itemgetter(0)
            groups = itertools.groupby(sorted(cfg.initial.atoms, key=first), key=first)
            merged = [(x, sum(m for _, m in atoms)) for x, atoms in groups]
            st0 = ParticleState([x for x, _ in merged], [m for _, m in merged], 0.0)
            history = integrate(cfg.potential, st0, cfg.t_end, cfg.dt)
            _write_particle_trajectory(
                os.path.join(cfg.out_dir, "trajectory.csv"), history
            )
            traj = quantile_trajectory(cfg.potential, history, cfg.n)
        else:
            traj = _exact_trajectory(cfg)
            _write_grid_trajectory(os.path.join(cfg.out_dir, "trajectory.csv"), traj)
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

    _write_summary(os.path.join(cfg.out_dir, "summary.csv"), traj)
    diagnostics = _run_diagnostics(cfg, traj)
    if diagnostics:
        with open(os.path.join(cfg.out_dir, "diagnostics.json"), "w") as fh:
            json.dump(diagnostics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    manifest = {
        "config": cfg.resolved_dict(),
        "seed": seed,
        "version": __version__,
        "outputs": sorted(
            name
            for name in ("trajectory.csv", "summary.csv", "manifest.json")
            + (("diagnostics.json",) if diagnostics else ())
        ),
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    value = w2_exact_discrete(ma, mb)
    print(_significant_digits(value, 12))
    return EXIT_OK


def cmd_ot(path: str, plan_out: str | None = None) -> int:
    try:
        with open(path) as fh:
            inst = DiscreteInstance.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, DomainError, KeyError, TypeError, ValueError) as exc:
        return _error_record("parse", EXIT_CONFIG, message=str(exc))
    try:
        plan = solve_primal(inst)
        dual = solve_dual(inst, plan)
    except DomainError as exc:
        return _error_record("domain", EXIT_CONFIG, message=str(exc))
    gap = abs(plan.objective - dual.objective)
    print(f"primal {_fmt(plan.objective)}")
    print(f"dual {_fmt(dual.objective)}")
    print(f"gap {_fmt(gap)}")
    if plan_out is not None:
        with open(plan_out, "w", newline="") as fh:
            for row in plan.x:
                fh.write(",".join(_fmts(row)) + "\n")
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
