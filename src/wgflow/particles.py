"""Finite particle dynamics companion to the quantile flow.

Forward Euler substeps with exact event location: between collisions the
cusp force is piecewise constant in the ordering, so the integrator is exact
there, and under a cusp alone it goes from event to event, each stretch of
substeps one cumulative sum that equals the substeps taken one by one, bit
for bit.  Collisions of attracting particles merge sticky (mass-weighted
position, momentum preserved); a repulsive contact does not merge, and
exactly coincident particles feel no mutual force, so they travel together
unless a splitting branch is chosen explicitly through
``nonuniqueness_branches``.  A run is recorded as a ``ParticleHistory``: its
times and, for each stretch of unchanged masses, one block of positions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .jko import FlowTrajectory, _trajectory
from .measures import MASS_TOL, DomainError, midpoint_nodes, piece_index
from .potential import Potential, _split, pair_energy, pair_force

_EVENT_TOL = 1e-13
CHUNK_POSITIONS = 1 << 15  # positions per chunk of summed substeps


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
        for name, values in (("positions", x), ("masses", m)):
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{name} must be finite")
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


class ParticleHistory(Sequence):
    """Read-only record of a particle run: the recorded ``times`` and, in
    order, ``segments`` of ``(masses, positions)``, each a run of records
    that share one mass vector, with one row of ``positions`` per record.

    As a sequence it holds one ``ParticleState`` per record, built when it is
    read.
    """

    def __init__(self, times: np.ndarray, segments):
        self.times = _frozen(times)
        self.segments = tuple((_frozen(m), _frozen(x)) for m, x in segments)
        # the index of each segment's first record, then the record count
        self._starts = np.cumsum([0] + [x.shape[0] for _, x in self.segments])

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]
        seg = int(np.searchsorted(self._starts, k, side="right")) - 1
        m, x = self.segments[seg]
        return ParticleState(x[k - self._starts[seg]], m, self.times[k])

    def __iter__(self):
        for (m, x), lo, hi in zip(self.segments, self._starts, self._starts[1:]):
            for row, t in zip(x, self.times[lo:hi].tolist()):
                yield ParticleState(row, m, t)


def _frozen(a) -> np.ndarray:
    """A read-only view of ``a`` as floats."""
    a = np.asarray(a, dtype=float).view()
    a.flags.writeable = False
    return a


def ode_rhs(W: Potential, st: ParticleState) -> np.ndarray:
    """Velocities dx_i/dt = -sum over j with x_j != x_i of m_j W'(x_i - x_j).

    Coincident particles are excluded, which makes a fully collapsed state
    stationary.
    """
    return -pair_force(W, st.positions, st.masses, cone=False)


def interaction_energy(W: Potential, st: ParticleState) -> float:
    """(1/2) sum_{i,j} m_i m_j W(x_i - x_j)."""
    return pair_energy(W, st.positions, st.masses)


def _crossing_times(gaps: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Time until each adjacent pair meets, moving apart at ``-rel``: finite
    only for distinct pairs that approach."""
    out = np.full(gaps.shape, np.inf)
    return np.divide(gaps, rel, out=out, where=(gaps > 0.0) & (rel > 0.0))


def _summed_substeps(x, v, t: float, t_end: float, dt: float, stop: float):
    """The substeps from ``(x, t)`` at velocity ``v`` that have no contact
    and the full length ``dt``, as one cumulative sum: their positions and
    times, and whether the loop takes its next substep from the last of them
    at the same velocity, that substep having a contact or a shorter length.

    The rows are the sum of the position and ``dt * v`` rows, which adds in
    the order of ``x + dt * v`` per substep.  They stop before ``stop``,
    before a change of ties or order (which changes the velocity), and at
    ``CHUNK_POSITIONS`` positions; there are enough to reach the first
    contact or ``t_end`` if they fit.
    """
    rel = v[:-1] - v[1:]
    first = _crossing_times(np.diff(x), rel).min(initial=np.inf)
    rows = int(max(1, min(CHUNK_POSITIONS // x.size, min(first, t_end - t) / dt + 2)))
    clock = np.cumsum(np.concatenate(([t], np.full(rows, dt))))
    X = np.empty((rows + 1, x.size))
    X[0], X[1:] = x, dt * v
    np.cumsum(X, axis=0, out=X)
    gaps = np.diff(X, axis=1)
    h = np.minimum(dt, t_end - clock[:-1])
    soonest = _crossing_times(gaps[:-1], rel).min(axis=1, initial=np.inf)
    # the substep's rule for a contact: a crossing within tolerance of it
    plain = (h == dt) & ~(soonest <= np.minimum(h, soonest) + _EVENT_TOL)
    same = np.all(np.sign(gaps[1:]) == np.sign(gaps[0]), axis=1) & (clock[1:] < stop)
    summed = plain & np.concatenate(([True], same[:-1]))
    j = rows if summed.all() else int(np.argmin(summed))
    if np.any(gaps[j] < 0.0):
        raise RuntimeError("particle ordering violated during integration")
    return X[1 : j + 1], clock[1 : j + 1], j < rows and (j == 0 or bool(same[j - 1]))


def integrate(W: Potential, st0: ParticleState, t_end: float, dt: float) -> ParticleHistory:
    """Advance the particle system to ``t_end`` by substeps of ``dt``,
    recording every substep.

    A substep ends early when two neighbours would cross; they are then
    advanced exactly to contact, and meet with the particles coincident with
    either.  At contact the one-sided relative velocity is
    ``-(m_i + m_j) * eta``: nonpositive (attractive or neutral cusp) means a
    sticky merge, positive (repulsive cusp) leaves the run coincident.

    Each ``ode_rhs`` call serves a chunk of substeps.  Under a cusp alone
    (``beta = 0``, no power terms) the velocities depend only on the order,
    the ties and the masses, so a chunk sums its substeps at once
    (``_summed_substeps``) up to the next contact, change of ties or
    ``t_end``, or ``CHUNK_POSITIONS`` positions, and takes the substep with
    the contact or the shortened length last.  Any other potential takes one
    substep per chunk.  Either way each row equals the forward Euler substep
    from the row before, bit for bit.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise DomainError(f"{name} {value} must be finite")
    if dt <= 0.0:
        raise DomainError(f"dt {dt} must be positive")
    beta, terms = _split(W)
    held = beta == 0.0 and not terms
    stop = t_end - 1e-12 * max(1.0, abs(t_end))
    times = [np.array([st0.time])]
    segments = [(st0.masses, [st0.positions[None]])]
    st = st0
    while st.time < stop:
        x, m, t = st.positions, st.masses, st.time
        v = ode_rhs(W, st)
        step = True
        # a stationary particle's velocity is 0.0 or -0.0 by the sign of its
        # rounded offset from the centre of mass, which can change between
        # substeps, and the two sums differ at a position of -0.0: a state
        # with such a particle takes its substeps one by one
        if held and not np.any((v == 0.0) & (x == 0.0) & np.signbit(x)):
            rows, clock, step = _summed_substeps(x, v, t, t_end, dt, stop)
            if clock.size:
                times.append(clock)
                segments[-1][1].append(rows)
                x, t = rows[-1], float(clock[-1])
        if step:
            h = min(dt, t_end - t)
            # earliest crossing among adjacent, distinct, approaching pairs
            gap = np.diff(x)
            whens = _crossing_times(gap, v[:-1] - v[1:])
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
            if m.size < segments[-1][0].size:
                segments.append((m, []))
            times.append(np.array([t]))
            segments[-1][1].append(x[None])
        st = ParticleState(x, m, t)
    return ParticleHistory(
        np.concatenate(times), [(m, np.concatenate(blocks)) for m, blocks in segments]
    )


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


def quantile_trajectory(W: Potential, history: ParticleHistory, n: int) -> FlowTrajectory:
    """Empirical-measure quantile grids of a particle history: a node reads, by
    ``piece_index``, the position of the first particle whose cumulative
    mass exceeds it (``+ 0.0`` reads -0.0 as 0.0, as a flat piece does).

    The grids are not stored: the trajectory's rows are read off the history
    a block at a time, records ``lo..hi-1`` gathered across the segments of
    equal masses through each segment's lookup, made once.  So no
    ``(records, n)`` array is formed unless ``grids`` is read.
    Rows equal ``to_quantile_grid`` of each state's measure bit for bit
    unless particles coincide: ``quantile_pieces`` sums their masses first,
    so the cluster's end can differ by one ulp and a node exactly between
    the two ends reads the next position.  Step costs use the
    substep lengths, which are nonuniform around collision events.
    """
    nodes = midpoint_nodes(n)
    starts = history._starts
    # the particle each node reads, per segment
    picks = [piece_index(np.cumsum(m), nodes) for m, _ in history.segments]

    def rows(lo: int, hi: int) -> np.ndarray:
        out = np.empty((hi - lo, n))
        seg = int(np.searchsorted(starts, lo, side="right")) - 1
        at = lo
        while at < hi:
            end = min(hi, int(starts[seg + 1]))
            x = history.segments[seg][1][at - starts[seg] : end - starts[seg]]
            # "clip" writes straight into ``out``; the indices are in range anyway
            np.take(x, picks[seg], axis=1, out=out[at - lo : end - lo], mode="clip")
            at, seg = end, seg + 1
        out += 0.0
        return out

    return _trajectory(W, history.times, rows, n)
