"""Minimizing-movement time stepping in quantile coordinates.

Each step minimizes ``(1/(2 tau n)) ||X - X_prev||^2 + E(X)`` over the cone
of nondecreasing grids, where E is the grid interaction energy with its cusp
replaced by the exact linear form it takes on the cone.  The inner problem is
smooth and strongly convex for every admissible step size, and is solved by
projected Newton (Bertsekas 1982): the face of the cone is read off the ties
of the pool-adjacent-violators projection of a gradient step, the Newton
system on that face is solved matrix-free by conjugate gradients, and a
trial that does not decrease the objective falls back to a projected-gradient
step with backtracking.  A step is returned at the iterate where its
prox-gradient residual was measured and met the tolerance.
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
    pair_hessian,
)
from .transport import w2_quantile

STEP_BOUND_FACTOR = 12.0
BACKTRACK_HALVINGS = 80
# Relative residual at which conjugate gradients stop on a Newton system.  A
# looser stop costs Newton iterations, a tighter one Hessian-vector passes: 10
# steps of |x|^1.5 at n=400 took 41 iterations and 41 passes at 1e-1, 27 and
# 45 at 1e-3, 25 and 60 at 1e-6.
CG_RTOL = 1e-3


class ConvergenceFailure(RuntimeError):
    """Inner solver ran out of iterations or of backtracking halvings.

    Carries the last accepted iterate, ``residuals``, the prox-gradient
    residual measured at the start of each inner iteration, and the last of
    them as ``residual`` (``inf`` when no iterate was accepted and ``last``
    is the previous state).
    """

    def __init__(
        self,
        message: str,
        last: QuantileGrid,
        residual: float,
        step_index: int | None = None,
        residuals: list[float] | tuple[float, ...] = (),
    ):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.step_index = step_index
        self.residuals = tuple(residuals)


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


def _newton_point(W: Potential, x: np.ndarray, g: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Projected Newton trial from ``x`` with gradient ``g``, on the face of
    the cone read off the projected-gradient point ``y``.

    The blocks are the runs of equal values in ``y``.  With ``xb``, ``gb`` the
    block means of ``x`` and ``g`` and ``mb`` the block masses, the reduced
    system ``(P^T H P) dz = -P^T g`` divided by the block sizes is
    ``dz / tau + pair_hessian(W, xb, mb, dz) = -gb``, self-adjoint in the
    ``mb``-weighted inner product.  Conjugate gradients in that inner product
    are conjugate gradients on ``P^T H P`` preconditioned by
    ``diag(block sizes) / tau``; they solve for ``e = -dz``.  Returns the
    projection of ``xb + dz``, expanded to the grid.
    """
    n = x.size
    gaps = np.diff(y)
    if np.all(gaps > 0.0):  # every block a singleton
        sizes = None
        xb, gb, mb = x, g, np.full(n, 1.0 / n)
    else:
        starts = np.flatnonzero(np.concatenate(([1.0], gaps)))
        sizes = np.diff(np.append(starts, n))
        xb = np.add.reduceat(x, starts) / sizes
        gb = np.add.reduceat(g, starts) / sizes
        mb = sizes / n
    e = np.zeros_like(xb)
    r = gb.copy()
    p = gb.copy()
    rr = float(mb @ (r * r))
    stop = CG_RTOL**2 * rr
    for _ in range(xb.size):
        hp = p / tau + pair_hessian(W, xb, mb, p)
        php = float(mb @ (p * hp))
        if not php > 0.0:
            break
        a = rr / php
        e += a * p
        r -= a * hp
        rr, rr_old = float(mb @ (r * r)), rr
        if rr <= stop:
            break
        p = r + (rr / rr_old) * p
    step = xb - e
    return _pava(step if sizes is None else np.repeat(step, sizes))


def jko_step(
    W: Potential,
    prev: QuantileGrid,
    cfg: JkoConfig,
    cert: ConvexityCertificate | None = None,
) -> QuantileGrid:
    """One implicit step from ``prev``.

    Minimizes the penalized energy over the monotone cone by projected
    Newton.  At each iterate ``x`` the projected-gradient point
    ``y = P(x - alpha0 g)`` is formed with the curvature-informed step
    ``alpha0``; ``x`` is returned once ``|y - x| / alpha0 <= inner_tol``, so
    the stopping rule holds at the returned grid itself.  Otherwise a Newton
    trial on the face of the cone that ``y``'s ties mark (``_newton_point``)
    is taken if it does not increase the objective, and a projected-gradient
    step with backtracking from ``alpha0`` if it does.  Without curvature
    (no power terms, ``beta = 0``) ``y`` is the Newton point, so the step
    goes straight to the projected-gradient test.  The output never
    increases the objective relative to ``prev``; a step whose backtracking
    finds no sufficient decrease raises ``ConvergenceFailure`` instead of
    being accepted.
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
    curved = W.beta != 0.0 or any(c != 0.0 for c, _ in W.terms)
    x = x_prev.copy()
    fx = gobj(x)
    residuals: list[float] = []
    for _ in range(cfg.inner_max_iters):
        g = ggrad(x)
        y = _pava(x - alpha0 * g)
        residuals.append(float(np.linalg.norm(y - x)) / alpha0)
        if residuals[-1] <= cfg.inner_tol:
            return QuantileGrid(x)
        if curved:
            z = _newton_point(W, x, g, y, tau)
            fz = gobj(z)
            if fz <= fx + 1e-12 * (1.0 + abs(fx)):
                x, fx = z, fz
                continue
        alpha = alpha0
        for halving in range(BACKTRACK_HALVINGS):
            if halving:
                alpha *= 0.5
                y = _pava(x - alpha * g)
            dy = y - x
            fy = gobj(y)
            model = fx + float(g @ dy) + 0.5 * float(dy @ dy) / alpha
            if fy <= model + 1e-12 * (1.0 + abs(fx)):
                break
        else:
            raise ConvergenceFailure(
                f"backtracking found no sufficient decrease in {BACKTRACK_HALVINGS} "
                f"halvings; residual so far {residuals[-1]:.3e}",
                last=QuantileGrid(x),
                # inf while x is still prev: no iterate was accepted
                residual=residuals[-1] if len(residuals) > 1 else math.inf,
                residuals=residuals,
            )
        x, fx = y, fy
    raise ConvergenceFailure(
        f"inner solver stopped after {cfg.inner_max_iters} iterations "
        f"with residual {residuals[-1]:.3e} > {cfg.inner_tol:.3e}",
        last=QuantileGrid(x),
        residual=residuals[-1],
        residuals=residuals,
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
