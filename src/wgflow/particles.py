"""Finite particle dynamics companion to the quantile flow.

Forward Euler with exact event location: between collisions the cusp force
is piecewise constant in the ordering, so the integrator is exact there.
Collisions of attracting particles merge sticky (mass-weighted position,
momentum preserved); a repulsive contact does not merge, and exactly
coincident particles feel no mutual force, so they travel together unless a
splitting branch is chosen explicitly through ``nonuniqueness_branches``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jko import FlowTrajectory, _trajectory
from .measures import MASS_TOL, DomainError, midpoint_nodes, piece_index
from .potential import Potential, pair_energy, pair_force

_EVENT_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Sorted particle positions with positive masses summing to 1."""

    positions: np.ndarray
    masses: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float).reshape(-1).copy()
        m = np.asarray(self.masses, dtype=float).reshape(-1).copy()
        if x.size != m.size or x.size < 1:
            raise DomainError("positions and masses must have equal positive length")
        if np.any(np.diff(x) < 0.0):
            raise DomainError("positions must be sorted nondecreasing")
        if np.any(m <= 0.0):
            raise DomainError("masses must be positive")
        if abs(m.sum() - 1.0) > MASS_TOL:
            raise DomainError("masses must sum to 1")
        x.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "time", float(self.time))

    @property
    def count(self) -> int:
        return self.positions.size


def ode_rhs(W: Potential, st: ParticleState) -> np.ndarray:
    """Velocities dx_i/dt = -sum over j with x_j != x_i of m_j W'(x_i - x_j).

    Coincident particles are excluded, which makes a fully collapsed state
    stationary.
    """
    return -pair_force(W, st.positions, st.masses, cone=False)


def interaction_energy(W: Potential, st: ParticleState) -> float:
    """(1/2) sum_{i,j} m_i m_j W(x_i - x_j)."""
    return pair_energy(W, st.positions, st.masses)


def integrate(W: Potential, st0: ParticleState, t_end: float, dt: float) -> list[ParticleState]:
    """Advance the particle system to ``t_end``, recording every substep.

    A substep ends early when two neighbours would cross; they are then
    advanced exactly to contact, and meet with the particles coincident with
    either.  At contact the one-sided relative velocity is
    ``-(m_i + m_j) * eta``: nonpositive (attractive or neutral cusp) means a
    sticky merge, positive (repulsive cusp) leaves the run coincident.
    """
    if dt <= 0.0:
        raise DomainError(f"dt {dt} must be positive")
    out = [st0]
    horizon_tol = 1e-12 * max(1.0, abs(t_end))
    while out[-1].time < t_end - horizon_tol:
        x, m, t = out[-1].positions, out[-1].masses, out[-1].time
        v = ode_rhs(W, out[-1])
        h = min(dt, t_end - t)
        # earliest crossing among adjacent, distinct, approaching pairs
        gap = np.diff(x)
        rel = v[:-1] - v[1:]
        approach = (gap > 0.0) & (rel > 0.0)
        whens = np.full(gap.size, np.inf)
        whens[approach] = gap[approach] / rel[approach]
        event = min(h, float(whens.min(initial=np.inf)))
        # every pair crossing within tolerance of the event takes part in it
        hit = whens <= event + _EVENT_TOL
        x = x + event * v
        t = t + event
        if hit.any():
            # each contact meets as one run with the coincident particles beside it
            pairs = np.flatnonzero(hit | (gap == 0.0))
            runs = np.split(pairs, np.flatnonzero(np.diff(pairs) > 1) + 1)
            for grp in reversed([run for run in runs if hit[run].any()]):
                lo, hi = int(grp[0]), int(grp[-1]) + 2
                mass = m[lo:hi].sum()
                x[lo:hi] = float(np.dot(x[lo:hi], m[lo:hi]) / mass)
                if W.eta >= 0.0:
                    # sticky merge: the run becomes one particle at the meeting point
                    x = np.delete(x, np.s_[lo + 1 : hi])
                    m = np.concatenate([m[:lo], [mass], m[hi:]])
        if np.any(np.diff(x) < 0.0):
            raise RuntimeError("particle ordering violated during integration")
        out.append(ParticleState(x, m, t))
    return out


def nonuniqueness_branches(x0: float, t: float, pair_onset: float = 1.0) -> list[ParticleState]:
    """Distinct solutions emanating from a single unit mass at ``x0`` under
    the repulsive unit cusp.

    Returns, at time ``t``: the stationary atom; the symmetric half-mass pair
    with gap ``t``; the symmetric third-mass triple with outer speed 2/3; and
    a pair that stays atomic until ``pair_onset`` and then opens.  Each curve
    satisfies the tie-excluding particle system exactly.
    """
    if t < 0.0:
        raise DomainError(f"time {t} must be nonnegative")
    if pair_onset <= 0.0:
        raise DomainError("pair_onset must be positive")
    stationary = ParticleState([x0], [1.0], t)
    pair = ParticleState([x0 - t / 2.0, x0 + t / 2.0], [0.5, 0.5], t)
    triple = ParticleState(
        [x0 - 2.0 * t / 3.0, x0, x0 + 2.0 * t / 3.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        t,
    )
    s = max(0.0, t - pair_onset)
    delayed = ParticleState([x0 - s / 2.0, x0 + s / 2.0], [0.5, 0.5], t)
    return [stationary, pair, triple, delayed]


def quantile_trajectory(W: Potential, history: list[ParticleState], n: int) -> FlowTrajectory:
    """Empirical-measure quantile grids of a particle history: a node reads,
    by ``piece_index``, the position of the first particle whose cumulative
    mass exceeds it (``+ 0.0`` reads -0.0 as 0.0, as a flat piece does).
    Rows equal ``to_quantile_grid`` of each state's measure bit for bit
    unless particles coincide: ``quantile_pieces`` sums their masses first,
    so the cluster's end can differ by one ulp and a node exactly between
    the two ends reads the next position.  Step costs use the
    substep lengths, which are nonuniform around collision events.
    """
    nodes = midpoint_nodes(n)
    grids = np.empty((len(history), n))
    for k, st in enumerate(history):
        grids[k] = st.positions[piece_index(np.cumsum(st.masses), nodes)] + 0.0
    return _trajectory(W, np.array([st.time for st in history]), grids)
