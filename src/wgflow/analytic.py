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
from dataclasses import dataclass, field

import numpy as np

from .jko import FlowTrajectory
from .measures import DomainError, Measure1D, QuantileGrid, eval_pieces, midpoint_nodes, quantile_pieces
from .potential import Potential, pair_force

KIND_REPULSIVE = "repulsive_cusp_diffusion"
KIND_ATTRACTIVE = "attractive_cusp_collapse"


@dataclass(frozen=True)
class ExactSolution:
    """Reference flow for W(x) = -eta_abs*|x| (diffusion) or +eta_abs*|x|
    (collapse) started from a finitely described measure; ``pieces`` holds
    ``quantile_pieces(init)``, taken once when the solution is built."""

    kind: str
    init: Measure1D
    eta_abs: float
    pieces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (KIND_REPULSIVE, KIND_ATTRACTIVE):
            raise DomainError(f"unknown exact-solution kind {self.kind!r}")
        if not self.eta_abs > 0.0:
            raise DomainError("eta_abs must be positive")
        object.__setattr__(self, "pieces", tuple(quantile_pieces(self.init)))


# ---------------------------------------------------------------------------
# exact isotonic projection of a piecewise affine function on (0, 1)
#
# Elements are quantile pieces [s0, s1, x0, b] with value x0 + b*(s - s0); a
# pool, the flat stretch produced by pooling, is a piece with b = 0 and x0 its
# pooled value.  Decreasing input pieces enter as pools.  One stack pass
# pushes the pieces in order and repairs in place: only the two junctions
# beside the last change (the pushed piece, or the one pool a repair leaves)
# can violate, and they are checked right first until neither does, which is
# the rightmost violation a rescan of the whole stack would find.  Two pools
# merge at their mean.  A pool next to a rising piece is refit against every
# rising neighbour at once, since fitting one side at a time need not
# terminate: it takes over the stretch of the left neighbour above its value
# and of the right neighbour below it, and its value is the input's mean over
# that span, the one root of a decreasing piecewise quadratic, found in
# closed form; what is left of a neighbour is continuous with the pool by
# construction and is not checked again (by value, a steep piece's rounding
# can exceed the tolerance, and the refit would repeat without end).  So a
# repair removes an element or is a refit that leaves open only junctions with
# pools, whose repair pools and removes one: the pass is linear in the pieces.


def _end_value(el):
    return el[2] + el[3] * (el[1] - el[0])


def _piece_mean(s0, s1, x0, b):
    return x0 + b * 0.5 * (s1 - s0)


def _violates(left, right) -> bool:
    lo, hi = right[2], _end_value(left)
    return lo < hi - 1e-12 * max(1.0, abs(lo), abs(hi))


def _pool(stack, k):
    """Replace stack[k] and stack[k+1] by one pool at their width-weighted
    mean; return the pool's index, k."""
    left, right = stack[k], stack[k + 1]
    w1 = left[1] - left[0]
    w2 = right[1] - right[0]
    v = (w1 * _piece_mean(*left) + w2 * _piece_mean(*right)) / (w1 + w2)
    stack[k : k + 2] = [[left[0], right[1], v, 0.0]]
    return k


def _fit(stack, k):
    """Refit the pool stack[k] against each rising neighbour present.

    At value v the pool spans [alpha(v), beta(v)]: the stretch of the left
    neighbour above v and of the right one below v, each clamped to its
    piece.  g(v), the integral of X - v over the span, has slope
    -(beta - alpha) and bends only at the neighbours' end values, so it
    decreases and is quadratic between those knots.  Above the highest knot
    u with g(u) >= 0, up to the next knot, the span grows at rate c: +1/b for
    an unclamped right piece, -1/b for an unclamped left one; below every
    knot c = 0.  With w the span at a knot u', g(u' + d) = g(u') - w d -
    c d^2 / 2, whose root nearest u' is d = 2 g / (w + sqrt(w^2 + 2 c g)).
    u' is u when c >= 0 and the knot above, where g < 0, when c < 0, so
    c g >= 0 and the root does not cancel.  Covered widths come from the
    value, not from differences of levels, to keep g accurate.  Returns the
    refit pool's index and whether its left and right junctions are open,
    that is, not with what is left of a neighbour.
    """
    p0, p1, v_pool, _ = stack[k]
    # a side is (piece, sign, value at the end next to the pool, value at its far end)
    left = right = None
    if k > 0 and stack[k - 1][3] > 0.0:
        el = stack[k - 1]
        left = (el, -1.0, _end_value(el), el[2])
    if k + 1 < len(stack) and stack[k + 1][3] > 0.0:
        el = stack[k + 1]
        right = (el, 1.0, el[2], _end_value(el))
    sides = [side for side in (left, right) if side is not None]

    def covered(side, v):
        """Width of the side's piece that the pool covers at value v."""
        el, sign, near, far = side
        if sign * (v - near) <= 0.0:
            return 0.0
        if sign * (v - far) >= 0.0:
            return el[1] - el[0]
        return min(sign * (v - near) / el[3], el[1] - el[0])

    def g(v):
        """The integral of X - v over the span at value v, and the span."""
        total, span = (p1 - p0) * (v_pool - v), p1 - p0
        for side in sides:
            el, sign, near, _ = side
            h = covered(side, v)
            total += h * (near + sign * 0.5 * el[3] * h - v)
            span += h
        return total, span

    above = None
    for u in sorted({x for side in sides for x in side[2:]}, reverse=True):
        gu, w = g(u)
        if gu >= 0.0:
            break
        above = (u, gu, w)
    # the span's growth rate just above u, or 0 below every knot
    c = 0.0
    if gu >= 0.0:
        c = sum(sign / el[3] for el, sign, near, far in sides if min(near, far) <= u < max(near, far))
    if c < 0.0:
        u, gu, w = above
    v = u + 2.0 * gu / (w + math.sqrt(w * w + 2.0 * c * gu))
    alpha, beta, head, tail = p0, p1, [], []
    if left is not None:
        el, h = left[0], covered(left, v)
        alpha = max(p0 - h, el[0]) if h < el[1] - el[0] else el[0]
        head = [[el[0], alpha, el[2], el[3]]] if alpha > el[0] else []
    if right is not None:
        el, h = right[0], covered(right, v)
        beta = min(p1 + h, el[1]) if h < el[1] - el[0] else el[1]
        tail = [[beta, el[1], el[2] + el[3] * (beta - el[0]), el[3]]] if beta < el[1] else []
    lo = k - (left is not None)
    stack[lo : k + 1 + (right is not None)] = head + [[alpha, beta, v, 0.0]] + tail
    return lo + len(head), not head, not tail


def _isotonic_pieces(pieces):
    """Isotonic projection of a piecewise affine function given as
    (s0, s1, x0, b) tuples with only upward jumps between pieces."""
    stack: list[list] = []
    for s0, s1, x0, b in pieces:
        if b >= 0.0:
            stack.append([s0, s1, x0, b])
        else:
            stack.append([s0, s1, _piece_mean(s0, s1, x0, b), 0.0])
        k, open_left, open_right = len(stack) - 1, True, True
        while True:
            if open_right and k + 1 < len(stack) and _violates(stack[k], stack[k + 1]):
                bad = k
            elif open_left and k > 0 and _violates(stack[k - 1], stack[k]):
                bad = k - 1
            else:
                break
            left, right = stack[bad], stack[bad + 1]
            if left[3] == 0.0 and right[3] == 0.0:
                k, open_left, open_right = _pool(stack, bad), True, True
            elif left[3] == 0.0 or right[3] == 0.0:
                k, open_left, open_right = _fit(stack, bad if left[3] == 0.0 else bad + 1)
            else:
                raise AssertionError("rising pieces cannot violate each other")
    return stack


def _transported_pieces(sol: ExactSolution, t: float):
    """Pieces of X0(s) + sign * eta_abs * t * (2s - 1) before projection."""
    sign = 1.0 if sol.kind == KIND_REPULSIVE else -1.0
    shift = sign * sol.eta_abs * t
    return [
        (s0, s1, x0 + shift * (2.0 * s0 - 1.0), b + 2.0 * shift)
        for s0, s1, x0, b in sol.pieces
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
    pieces = sol.pieces
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
    pairwise velocity of the midpoint grid.  Midpoint grids, their
    velocities (one ``pair_force`` call) and each bump's space factor are
    formed for a block of rows (``FlowTrajectory.row_blocks``) at a time; the
    per-step weights are summed in step order.
    """
    times, n = traj.times, traj.grid_size
    t_mid = 0.5 * (times[:-1] + times[1:])
    dt = np.diff(times)
    m = np.full(n, 1.0 / n)
    time_factors = [SpaceTimeBump._factor(t_mid, phi.t_center, phi.t_radius) for phi in test_fns]
    # column 0 holds the 0.0 each sum starts from
    weights = np.zeros((len(test_fns), times.size))
    for _, rows, block in traj.row_blocks():
        if rows.stop == rows.start:
            continue
        gm = 0.5 * (block[:-1] + block[1:])
        v = -pair_force(W, gm, m, cone=False)
        for w, phi, (h, dh) in zip(weights, test_fns, time_factors):
            g, dg = SpaceTimeBump._factor(gm, phi.x_center, phi.x_radius)
            integrand = g * dh[rows, None] + v * (dg * h[rows, None])
            w[1:][rows] = dt[rows] * np.mean(integrand, axis=1)
    first = traj.rows(0, 1)[0]
    worst = 0.0
    for phi, acc in zip(test_fns, np.cumsum(weights, axis=1)[:, -1]):
        g0, _ = SpaceTimeBump._factor(first, phi.x_center, phi.x_radius)
        h0, _ = SpaceTimeBump._factor(times[0], phi.t_center, phi.t_radius)
        worst = max(worst, abs(acc + float(np.mean(g0 * h0))))
    return worst


def metric_derivative_estimate(traj: FlowTrajectory) -> np.ndarray:
    """Per-step speed W2(X_k, X_{k+1}) / (t_{k+1} - t_k)."""
    if traj.times.size < 2:
        raise DomainError("metric derivative needs at least two states")
    return traj.speeds
