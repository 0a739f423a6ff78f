"""Closed-form reference solutions for the pure-cusp potentials and
PDE-level diagnostics that any trajectory can be checked against.

For the repulsive cusp the quantile evolves linearly in time at every mass
label.  For the attractive cusp the state equals the exact isotonic
projection of the time-reversed linear transport, which reproduces sticky
collapse without case analysis; the projection is computed in closed form on
the piecewise affine quantile, including partial pooling of rising pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jko import FlowTrajectory
from .measures import DomainError, Measure1D, QuantileGrid, _row_chunks, eval_pieces, midpoint_nodes, quantile_pieces
from .potential import Potential, pair_force
from .transport import _row_w2

KIND_REPULSIVE = "repulsive_cusp_diffusion"
KIND_ATTRACTIVE = "attractive_cusp_collapse"


@dataclass(frozen=True)
class ExactSolution:
    """Reference flow for W(x) = -eta_abs*|x| (diffusion) or +eta_abs*|x|
    (collapse) started from a finitely described measure."""

    kind: str
    init: Measure1D
    eta_abs: float

    def __post_init__(self):
        if self.kind not in (KIND_REPULSIVE, KIND_ATTRACTIVE):
            raise DomainError(f"unknown exact-solution kind {self.kind!r}")
        if not self.eta_abs > 0.0:
            raise DomainError("eta_abs must be positive")


# ---------------------------------------------------------------------------
# exact isotonic projection of a piecewise affine function on (0, 1)
#
# Elements are quantile pieces [s0, s1, x0, b] with value x0 + b*(s - s0); a
# pool, the flat stretch produced by pooling, is a piece with b = 0 and x0 its
# pooled value.  Decreasing input pieces enter as pools; violating junctions
# are repaired right to left.  Pools absorb flat pieces wholesale and split
# rising pieces at the point where the pooled mean meets the function value;
# a pool flanked by rising pieces on both sides is resolved jointly, since
# fitting one side at a time need not terminate.


def _end_value(el):
    return el[2] + el[3] * (el[1] - el[0])


def _piece_mean(s0, s1, x0, b):
    return x0 + b * 0.5 * (s1 - s0)


def _violates(left, right) -> bool:
    lo, hi = right[2], _end_value(left)
    return lo < hi - 1e-12 * max(1.0, abs(lo), abs(hi))


def _pool(stack, k):
    """Replace stack[k] and stack[k+1] by one pool at their width-weighted mean."""
    left, right = stack[k], stack[k + 1]
    w1 = left[1] - left[0]
    w2 = right[1] - right[0]
    v = (w1 * _piece_mean(*left) + w2 * _piece_mean(*right)) / (w1 + w2)
    stack[k : k + 2] = [[left[0], right[1], v, 0.0]]


def _eat_head(stack, k):
    """Pool at k extends into the rising piece at k+1 with a smooth fit."""
    ps0, ps1, v, _ = stack[k]
    s0, s1, x0, b = stack[k + 1]
    wp = ps1 - ps0
    w = -wp + math.sqrt(wp * wp + 2.0 * wp * (v - x0) / b)
    if w >= s1 - s0:
        _pool(stack, k)
        return
    split = s0 + w
    x_split = x0 + b * (split - s0)
    stack[k : k + 2] = [[ps0, split, x_split, 0.0], [split, s1, x_split, b]]


def _eat_tail(stack, k):
    """Pool at k+1 extends into the rising piece at k with a smooth fit."""
    s0, s1, x0, b = stack[k]
    ps0, ps1, v, _ = stack[k + 1]
    wp = ps1 - ps0
    w = -wp + math.sqrt(wp * wp - 2.0 * wp * (v - _end_value(stack[k])) / b)
    if w >= s1 - s0:
        _pool(stack, k)
        return
    split = s1 - w
    stack[k : k + 2] = [[s0, split, x0, b], [split, ps1, x0 + b * (split - s0), 0.0]]


def _joint_fit(stack, k):
    """Refit a pool flanked by rising pieces: stack[k..k+2] = [A, P, B].

    The pooled interval [alpha, beta] of the local solution has each end
    either at a smooth-fit point (pool value equals the piece value there)
    or at the outer edge of the flanking piece (that piece fully absorbed).
    Every end pattern is closed form; the pattern whose side conditions hold
    (scored, so boundary ties resolve cleanly) is the local solution.
    Resolving the triple in one shot is what makes the repair loop
    terminate: alternating single-sided fits can contract forever without
    reaching the common fit.
    """
    l0, l1, fa0, b1 = stack[k]
    p0, p1, v_pool, _ = stack[k + 1]
    r0, r1, fb0, b2 = stack[k + 2]
    span_p = p1 - p0
    content = v_pool * span_p
    fa1, fb1 = _end_value(stack[k]), _end_value(stack[k + 2])
    int_a = 0.5 * (fa0 + fa1) * (l1 - l0)
    int_b = 0.5 * (fb0 + fb1) * (r1 - r0)
    width_a = l1 - l0
    width_b = r1 - r0

    def _root(arg):
        return math.sqrt(arg) if arg >= 0.0 else None

    def left_smooth(extra_content, base_span):
        """Eat w off A's tail so that mean = f_A(l1 - w); None if no root."""
        w = _root(base_span * base_span - 2.0 * (extra_content - fa1 * base_span) / b1)
        return None if w is None else w - base_span

    def right_smooth(extra_content, base_span):
        """Eat w off B's head so that mean = f_B(r0 + w); None if no root."""
        w = _root(base_span * base_span - 2.0 * (fb0 * base_span - extra_content) / b2)
        return None if w is None else w - base_span

    # every end pattern is scored by its worst violated side condition; the
    # true local solution scores zero up to roundoff
    candidates: list[tuple[float, float, float, float]] = []

    def add(score, alpha, beta, v):
        candidates.append((max(score, 0.0), alpha, beta, v))

    # (smooth, r0): fit inside A, leave B
    w = left_smooth(content, span_p)
    if w is not None:
        alpha = min(max(l1 - w, l0), l1)
        v = fa0 + b1 * (alpha - l0)
        add(max(-w, w - width_a, v - fb0), alpha, p1, v)

    # (l1, smooth): leave A, fit inside B
    w = right_smooth(content, span_p)
    if w is not None:
        beta = min(max(r0 + w, r0), r1)
        v = fb0 + b2 * (beta - r0)
        add(max(-w, w - width_b, fa1 - v), p0, beta, v)

    # (smooth, smooth): common fit value; the defect is quadratic in v
    def g(v):
        alpha = l0 + (v - fa0) / b1
        beta = r0 + (v - fb0) / b2
        eaten_a = 0.5 * (v + fa1) * (l1 - alpha)
        eaten_b = 0.5 * (fb0 + v) * (beta - r0)
        return v * (beta - alpha) - (content + eaten_a + eaten_b)

    v_lo, v_hi = max(fa0, fb0), min(fa1, fb1)
    if v_lo <= v_hi:
        g0, g1, g2 = g(0.0), g(1.0), g(2.0)
        c2 = 0.5 * (g2 - 2.0 * g1 + g0)
        c1 = g1 - g0 - c2
        roots = []
        if abs(c2) < 1e-14 * max(1.0, abs(c1), abs(g0)):
            if c1 != 0.0:
                roots = [-g0 / c1]
        else:
            disc = c1 * c1 - 4.0 * c2 * g0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                roots = [(-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)]
        for v in roots:
            alpha = min(max(l0 + (v - fa0) / b1, l0), l1)
            beta = min(max(r0 + (v - fb0) / b2, r0), r1)
            add(max(v_lo - v, v - v_hi), alpha, beta, v)

    # (l0, r0): absorb A whole, leave B
    v = (content + int_a) / (span_p + width_a)
    add(max(v - fa0, v - fb0), l0, p1, v)

    # (l1, r1): leave A, absorb B whole
    v = (content + int_b) / (span_p + width_b)
    add(max(fb1 - v, fa1 - v), p0, r1, v)

    # (l0, smooth): absorb A whole, fit inside B
    w = right_smooth(content + int_a, span_p + width_a)
    if w is not None:
        beta = min(max(r0 + w, r0), r1)
        v = fb0 + b2 * (beta - r0)
        add(max(-w, w - width_b, v - fa0), l0, beta, v)

    # (smooth, r1): fit inside A, absorb B whole
    w = left_smooth(content + int_b, span_p + width_b)
    if w is not None:
        alpha = min(max(l1 - w, l0), l1)
        v = fa0 + b1 * (alpha - l0)
        add(max(-w, w - width_a, fb1 - v), alpha, r1, v)

    # (l0, r1): absorb both
    v = (content + int_a + int_b) / (span_p + width_a + width_b)
    add(max(v - fa0, fb1 - v), l0, r1, v)

    _, alpha, beta, v = min(candidates, key=lambda c: c[0])
    new: list[list] = []
    if alpha > l0:
        new.append([l0, alpha, fa0, b1])
    new.append([alpha, beta, v, 0.0])
    if beta < r1:
        new.append([beta, r1, fb0 + b2 * (beta - r0), b2])
    stack[k : k + 3] = new


def _repair(stack):
    for _ in range(10000):
        bad = None
        for k in range(len(stack) - 1):
            if _violates(stack[k], stack[k + 1]):
                bad = k
        if bad is None:
            return
        left, right = stack[bad], stack[bad + 1]
        if left[3] == 0.0 and right[3] == 0.0:
            _pool(stack, bad)
        elif left[3] == 0.0:
            if bad - 1 >= 0 and stack[bad - 1][3] > 0.0:
                _joint_fit(stack, bad - 1)
            else:
                _eat_head(stack, bad)
        elif right[3] == 0.0:
            if bad + 2 < len(stack) and stack[bad + 2][3] > 0.0:
                _joint_fit(stack, bad)
            else:
                _eat_tail(stack, bad)
        else:
            raise AssertionError("rising pieces cannot violate each other")
    raise RuntimeError("isotonic repair did not terminate")


def _isotonic_pieces(pieces):
    """Isotonic projection of a piecewise affine function given as
    (s0, s1, x0, b) tuples with only upward jumps between pieces."""
    stack: list[list] = []
    for s0, s1, x0, b in pieces:
        if b >= 0.0:
            stack.append([s0, s1, x0, b])
        else:
            stack.append([s0, s1, _piece_mean(s0, s1, x0, b), 0.0])
        _repair(stack)
    return stack


def _transported_pieces(sol: ExactSolution, t: float):
    """Pieces of X0(s) + sign * eta_abs * t * (2s - 1) before projection."""
    sign = 1.0 if sol.kind == KIND_REPULSIVE else -1.0
    shift = sign * sol.eta_abs * t
    return [
        (s0, s1, x0 + shift * (2.0 * s0 - 1.0), b + 2.0 * shift)
        for s0, s1, x0, b in quantile_pieces(sol.init)
    ]


def _structure(sol: ExactSolution, t: float):
    if t < 0.0:
        raise DomainError(f"time {t} must be nonnegative")
    pieces = _transported_pieces(sol, t)
    if sol.kind == KIND_REPULSIVE:
        # slopes b + 2 eta t stay nonnegative and jumps stay upward
        return pieces
    return _isotonic_pieces(pieces)


def exact_quantile(sol: ExactSolution, t: float, z: float) -> float:
    """Quantile of the reference solution at time ``t`` and mass label ``z``."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"mass label {z} outside (0, 1)")
    return float(eval_pieces(_structure(sol, t), z))


def exact_grid(sol: ExactSolution, t: float, n: int) -> QuantileGrid:
    """Reference quantile sampled at the ``n`` midpoint nodes."""
    return QuantileGrid(eval_pieces(_structure(sol, t), midpoint_nodes(n)))


def exact_measure(sol: ExactSolution, t: float) -> Measure1D:
    """The reference state at time ``t`` as a measure.

    Rising stretches become uniform segments, flats and pools become atoms.
    """
    atoms: list[tuple[float, float]] = []
    pieces: list[tuple[float, float, float]] = []
    for el in _structure(sol, t):
        mass = el[1] - el[0]
        if mass <= 0.0:
            continue
        if el[3] > 0.0:
            pieces.append((el[2], _end_value(el), mass))
        else:
            atoms.append((el[2], mass))
    return Measure1D(atoms=tuple(atoms), pieces=tuple(pieces))


def _integral(el, lo, hi):
    """Integral of the piece over [lo, hi]."""
    return (hi - lo) * (el[2] + 0.5 * el[3] * ((lo - el[0]) + (hi - el[0])))


def collapse_time(sol: ExactSolution) -> float:
    """Smallest time at which the attractive solution is constant in ``z``:
    the widest gap ``u(s) - l(s)`` over eta, with ``l(s)`` the mean of X0 over
    (0, s) and ``u(s)`` its mean over (s, 1).  It peaks as s -> 0 or 1, at a
    junction, or in a rising piece ``x0 + b (s - s0)`` where
    ``c2 s^2 + 2 q s = q``, ``c2 = mean - x0 + b (s0 - 1/2)`` and
    ``q = s0 (x0 - b s0/2) - F(s0)``, F = int X0."""
    if sol.kind != KIND_ATTRACTIVE:
        raise DomainError("collapse time is defined for the attractive kind only")
    pieces = quantile_pieces(sol.init)
    if _end_value(pieces[-1]) <= pieces[0][2]:
        return 0.0
    # integrals below each piece summed from the bottom, above it from the top
    shares = [_integral(el, el[0], el[1]) for el in pieces]
    below = list(itertools.accumulate(shares, initial=0.0))
    above = list(itertools.accumulate(shares[::-1], initial=0.0))[::-1]
    end = pieces[-1][1]  # the mass the pieces cover, 1 within MASS_TOL
    mean = above[0] / end
    gap = max(mean - pieces[0][2], _end_value(pieces[-1]) - below[-1] / end)
    for k, el in enumerate(pieces):
        s0, s1, x0, b = el
        levels = [s0] if k else []
        c2, q = mean - x0 + b * (s0 - 0.5), s0 * (x0 - 0.5 * b * s0) - below[k]
        if b > 0.0 and q != 0.0 and q * (q + c2) >= 0.0:
            r = q + math.copysign(math.sqrt(q * (q + c2)), q)  # roots q / r and -r / c2
            levels += [q / r, -r / c2] if c2 != 0.0 else [q / r]
        for s in levels:
            if s0 <= s < s1:
                upper = (above[k + 1] + _integral(el, s, s1)) / (end - s)
                gap = max(gap, upper - (below[k] + _integral(el, s0, s)) / s)
    return max(gap, 0.0) / sol.eta_abs


# ---------------------------------------------------------------------------
# trajectory diagnostics


@dataclass(frozen=True)
class SpaceTimeBump:
    """Compactly supported test function g(x) h(t) with exact derivatives.

    Each factor is ``(1 - u^2)^3`` with ``u`` the normalized offset inside
    the declared window and zero outside, so the function is C^2 with
    closed-form partials.
    """

    x_center: float
    x_radius: float
    t_center: float
    t_radius: float

    @staticmethod
    def _factor(y, c, r):
        """The factor ``(1 - u^2)^3`` at ``y`` and its derivative in ``y``."""
        u = (np.asarray(y, dtype=float) - c) / r
        inside = np.abs(u) < 1.0
        base = np.where(inside, 1.0 - u * u, 0.0)
        return base**3, np.where(inside, -6.0 * u * base * base / r, 0.0)


def default_bump_library(
    x_window: tuple[float, float], t_window: tuple[float, float]
) -> list[SpaceTimeBump]:
    """Four bumps spread over the declared space-time window."""
    xl, xr = x_window
    tl, tr = t_window
    xc, xr2 = 0.5 * (xl + xr), 0.5 * (xr - xl)
    tc, tr2 = 0.5 * (tl + tr), 0.5 * (tr - tl)
    return [
        SpaceTimeBump(xc, xr2, tc, tr2),
        SpaceTimeBump(xc - 0.4 * xr2, 0.6 * xr2, tc, tr2),
        SpaceTimeBump(xc + 0.4 * xr2, 0.6 * xr2, tc - 0.3 * tr2, 0.7 * tr2),
        SpaceTimeBump(xc, 0.8 * xr2, tc + 0.3 * tr2, 0.7 * tr2),
    ]


def weak_residual(traj: FlowTrajectory, W: Potential, test_fns: list[SpaceTimeBump]) -> float:
    """Largest distributional defect of the trajectory over the test functions.

    Evaluates ``| integral of (d_t phi + v d_x phi) d(mu_t) dt
    + integral of phi(., t0) d(mu_0) |`` with midpoint quadrature in time and
    the quantile-grid expectation in space, where ``v`` is the tie-excluding
    pairwise velocity of the midpoint grid.  Midpoint grids and each bump's
    space factor are formed for a block of rows of ``traj.grids`` at a time,
    velocities one row at a time; the per-step weights are summed in step
    order.
    """
    times, grids, n = traj.times, traj.grids, traj.grid_size
    t_mid = 0.5 * (times[:-1] + times[1:])
    dt = np.diff(times)
    m = np.full(n, 1.0 / n)
    time_factors = [SpaceTimeBump._factor(t_mid, phi.t_center, phi.t_radius) for phi in test_fns]
    # column 0 holds the 0.0 each sum starts from
    weights = np.zeros((len(test_fns), times.size))
    for rows in _row_chunks(dt.size, n):
        gm = 0.5 * (grids[:-1][rows] + grids[1:][rows])
        v = np.empty_like(gm)
        for i, row in enumerate(gm):
            v[i] = -pair_force(W, row, m, cone=False)
        for w, phi, (h, dh) in zip(weights, test_fns, time_factors):
            g, dg = SpaceTimeBump._factor(gm, phi.x_center, phi.x_radius)
            integrand = g * dh[rows, None] + v * (dg * h[rows, None])
            w[1:][rows] = dt[rows] * np.mean(integrand, axis=1)
    worst = 0.0
    for phi, acc in zip(test_fns, np.cumsum(weights, axis=1)[:, -1]):
        g0, _ = SpaceTimeBump._factor(grids[0], phi.x_center, phi.x_radius)
        h0, _ = SpaceTimeBump._factor(times[0], phi.t_center, phi.t_radius)
        worst = max(worst, abs(acc + float(np.mean(g0 * h0))))
    return worst


def metric_derivative_estimate(traj: FlowTrajectory) -> np.ndarray:
    """Per-step speed W2(X_k, X_{k+1}) / (t_{k+1} - t_k)."""
    if traj.times.size < 2:
        raise DomainError("metric derivative needs at least two states")
    return _row_w2(traj.grids[:-1], traj.grids[1:]) / np.diff(traj.times)
