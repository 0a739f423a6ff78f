"""Minimizing-movement time stepping in quantile coordinates.

Each step minimizes ``(1/(2 tau n)) ||X - X_prev||^2 + E(X)`` over the cone
of nondecreasing grids, where E is the grid interaction energy with its cusp
replaced by the exact linear form it takes on the cone.  The inner problem is
solved by projected gradient descent with a pool-adjacent-violators
projection and backtracking line search; it is strongly convex for every
admissible step size, so convergence is linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DomainError, Measure1D, QuantileGrid, to_quantile_grid
from .potential import (
    ConvexityCertificate,
    Potential,
    convexity_certificate,
    curvature_bound,
    interaction_energy,
    pair_energy,
    pair_force,
)
from .transport import w2_quantile

STEP_BOUND_FACTOR = 12.0
BACKTRACK_HALVINGS = 80


class ConvergenceFailure(RuntimeError):
    """Inner solver ran out of iterations or of backtracking halvings;
    carries the last accepted iterate and its residual."""

    def __init__(self, message: str, last: QuantileGrid, residual: float, step_index: int | None = None):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.step_index = step_index


@dataclass(frozen=True)
class JkoConfig:
    """Scheme parameters: step size, grid size, horizon, inner stopping rule.

    ``inner_tol`` bounds the proximal-gradient norm of the (n-scaled) inner
    objective and defaults to ``1e-10 * n``.
    """

    tau: float
    n: int
    t_end: float
    inner_tol: float | None = None
    inner_max_iters: int = 500

    def __post_init__(self):
        if self.tau <= 0.0:
            raise DomainError(f"tau {self.tau} must be positive")
        if self.n < 1:
            raise DomainError(f"grid size {self.n} must be positive")
        if self.t_end < 0.0:
            raise DomainError(f"t_end {self.t_end} must be nonnegative")
        if self.inner_tol is None:
            object.__setattr__(self, "inner_tol", 1e-10 * self.n)
        if self.inner_tol <= 0.0:
            raise DomainError("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise DomainError("inner_max_iters must be at least 1")

    def validate_step_bound(self, cert: ConvexityCertificate):
        prod = STEP_BOUND_FACTOR * self.tau * cert.lambda_minus
        if prod > 1.0 + 1e-12:
            raise DomainError(
                f"step restriction 12*tau*lambda_minus <= 1 violated: "
                f"12 * {self.tau} * {cert.lambda_minus} = {prod}"
            )

    def step_count(self) -> int:
        k = round(self.t_end / self.tau)
        if abs(k * self.tau - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise DomainError(
                f"t_end {self.t_end} is not an integer multiple of tau {self.tau}"
            )
        return int(k)


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Time-indexed grid states with per-step diagnostics.

    ``energies[k]`` is the interaction energy of ``states[k]`` and
    ``step_costs[k]`` the squared step distance over twice the step length,
    ``W2^2(states[k], states[k+1]) / (2 (times[k+1]-times[k]))``.
    """

    times: np.ndarray
    states: tuple[QuantileGrid, ...]
    energies: np.ndarray
    step_costs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).copy()
        e = np.asarray(self.energies, dtype=float).copy()
        c = np.asarray(self.step_costs, dtype=float).copy()
        if not (len(self.states) == t.size == e.size == c.size + 1):
            raise DomainError("trajectory arrays have inconsistent lengths")
        for arr in (t, e, c):
            arr.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "step_costs", c)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def grid_size(self) -> int:
        return self.states[0].n


def _trajectory(W: Potential, times: np.ndarray, states: list[QuantileGrid]) -> FlowTrajectory:
    """FlowTrajectory of finished states: their energies, and step costs
    ``W2^2 / (2 span)`` that are 0 over a span of length 0."""
    spans = np.diff(times)
    costs = [
        w2_quantile(a, b) ** 2 / (2.0 * span) if span > 0.0 else 0.0
        for a, b, span in zip(states, states[1:], spans)
    ]
    energies = [interaction_energy(W, g) for g in states]
    return FlowTrajectory(times, tuple(states), np.array(energies), np.array(costs))


def _pava(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pool adjacent violators);
    an input that is already nondecreasing is returned as it is."""
    if np.all(np.diff(y) >= 0.0):
        return y
    means: list[float] = []
    counts: list[int] = []
    for value in y:
        means.append(float(value))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2 = means.pop()
            c2 = counts.pop()
            c1 = counts[-1]
            means[-1] = (c1 * means[-1] + c2 * m2) / (c1 + c2)
            counts[-1] = c1 + c2
    return np.repeat(means, counts)


def isotonic_project(y) -> QuantileGrid:
    """Closest nondecreasing grid to ``y`` in the Euclidean norm; idempotent."""
    return QuantileGrid(_pava(np.asarray(y, dtype=float).reshape(-1)))


def jko_step(
    W: Potential,
    prev: QuantileGrid,
    cfg: JkoConfig,
    cert: ConvexityCertificate | None = None,
) -> QuantileGrid:
    """One implicit step from ``prev``.

    Minimizes the penalized energy over the monotone cone by projected
    gradient with backtracking from the curvature-informed step size.  The
    output satisfies the stopping rule and never increases the objective
    relative to ``prev``; a step whose backtracking finds no sufficient
    decrease raises ``ConvergenceFailure`` instead of being accepted.
    """
    if not W.jko_eligible:
        raise DomainError(
            "potential grows faster than quadratically; implicit stepping refused"
        )
    n = prev.n
    if cfg.n != n:
        raise DomainError(f"config grid size {cfg.n} does not match state size {n}")
    radius = max(1.0, 2.0 * float(np.max(np.abs(prev.values))) + 1.0)
    if cert is None:
        cert = convexity_certificate(W, radius=radius)
    cfg.validate_step_bound(cert)

    tau = cfg.tau
    x_prev = prev.values
    m = np.full(n, 1.0 / n)

    # objective scaled by n: G(x) = ||x - x_prev||^2 / (2 tau) + n E(x); the
    # cone gradient of n E is n * m * force = force
    def gobj(x):
        d = x - x_prev
        return 0.5 * float(d @ d) / tau + n * pair_energy(W, x, m)

    def ggrad(x):
        return (x - x_prev) / tau + pair_force(W, x, m, cone=True)

    alpha0 = 1.0 / (1.0 / tau + 2.0 * curvature_bound(W, radius))
    x = x_prev.copy()
    fx = gobj(x)
    residual = math.inf
    for _ in range(cfg.inner_max_iters):
        g = ggrad(x)
        alpha = alpha0
        for _ in range(BACKTRACK_HALVINGS):
            y = _pava(x - alpha * g)
            dy = y - x
            fy = gobj(y)
            model = fx + float(g @ dy) + 0.5 * float(dy @ dy) / alpha
            if fy <= model + 1e-12 * (1.0 + abs(fx)):
                break
            alpha *= 0.5
        else:
            raise ConvergenceFailure(
                f"backtracking found no sufficient decrease in {BACKTRACK_HALVINGS} "
                f"halvings; residual so far {residual:.3e}",
                last=QuantileGrid(x),
                residual=residual,
            )
        residual = float(np.linalg.norm(dy)) / alpha
        x, fx = y, fy
        if residual <= cfg.inner_tol:
            return QuantileGrid(x)
    raise ConvergenceFailure(
        f"inner solver stopped after {cfg.inner_max_iters} iterations "
        f"with residual {residual:.3e} > {cfg.inner_tol:.3e}",
        last=QuantileGrid(x),
        residual=residual,
    )


def run_flow(W: Potential, init: Measure1D, cfg: JkoConfig) -> FlowTrajectory:
    """Iterate the implicit step from ``init`` up to ``t_end``.

    Records the energy of every state and the squared step distances; a
    convergence failure is re-raised with the offending step index attached.
    The certificate is taken once at the default radius of 10 whatever the
    support: for a potential the scheme accepts it does not depend on the
    radius (see ``convexity_certificate``).
    """
    cert = convexity_certificate(W)
    cfg.validate_step_bound(cert)
    steps = cfg.step_count()
    states = [to_quantile_grid(init, cfg.n)]
    for k in range(steps):
        try:
            states.append(jko_step(W, states[-1], cfg, cert))
        except ConvergenceFailure as failure:
            failure.step_index = k
            raise
    return _trajectory(W, np.arange(steps + 1) * cfg.tau, states)


def evi_residual(W: Potential, traj: FlowTrajectory, sigma: QuantileGrid) -> np.ndarray:
    """Per-step defect of the evolution variational inequality against ``sigma``.

    Entry k is ``[W2^2(X_{k+1}, sigma) - W2^2(X_k, sigma)] / (2 tau)
    + (eta/2) W2^2(X_{k+1}, sigma) - (E[sigma] - E[X_{k+1}])``; contract:
    nonpositive up to discretization slack of order tau.
    """
    if sigma.n != traj.grid_size:
        raise DomainError("reference grid size does not match the trajectory")
    e_sigma = interaction_energy(W, sigma)
    dists = np.array([w2_quantile(s, sigma) ** 2 for s in traj.states])
    taus = np.diff(traj.times)
    return (
        np.diff(dists) / (2.0 * taus)
        + 0.5 * W.eta * dists[1:]
        - (e_sigma - traj.energies[1:])
    )


def energy_identity_residual(W: Potential, traj: FlowTrajectory) -> float:
    """Defect of the discrete energy identity over the whole trajectory.

    ``|sum_k 2 step_costs[k] - (E[X_0] - E[X_K])|``, which vanishes as the
    step size shrinks at fixed horizon.
    """
    if len(traj.states) == 0:
        raise DomainError("empty trajectory")
    if traj.step_costs.size == 0:
        return 0.0
    drop = traj.energies[0] - traj.energies[-1]
    return float(abs(2.0 * np.sum(traj.step_costs) - drop))
