"""Probability measures on the real line built from weighted atoms and
uniform-density segments, together with their cumulative distribution
functions and monotone rearrangements (quantile functions).

The quantile function uses the strict-inequality pseudo-inverse
``X(s) = inf {x : M(x) > s}``.  It is piecewise affine, and it is held as
``(s0, s1, x0, b)`` pieces with ``X(s) = x0 + b*(s - s0)`` on ``[s0, s1)``,
so ``x0`` is the value where the piece starts: the one quantile
representation that grids, exact solutions and exact distances all evaluate
through ``piece_index``.  All types are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

MASS_TOL = 1e-12


class DomainError(ValueError):
    """An operation was invoked outside its stated domain."""


def _check_grids(v: np.ndarray):
    """Refuse ``v`` unless it is a nonempty 2-D array of finite nondecreasing
    rows.  Its temporaries are the size of ``v``: a pass over a trajectory
    hands it one block of rows at a time (``jko._row_blocks``)."""
    if v.ndim != 2 or v.size == 0:
        raise DomainError("quantile grids need at least one grid of at least one value")
    if not np.all(np.isfinite(v)):
        raise DomainError("quantile grid values must be finite")
    if np.any(v[:, 1:] < v[:, :-1]):
        raise DomainError("quantile grid values must be nondecreasing")


def _row_w2sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry k is the squared discrete W2 distance of rows k of ``a`` and ``b`` (``b`` if 1-D)."""
    d = a - b
    return np.mean(d * d, axis=1)


def midpoint_nodes(n: int) -> np.ndarray:
    """The ``n`` midpoint mass levels ``(k + 1/2) / n`` a quantile grid samples."""
    if n < 1:
        raise DomainError(f"grid size {n} must be positive")
    return (np.arange(n) + 0.5) / n


def finite_number(value, name: str) -> float:
    """``value`` as a float, refused by ``name`` unless it is a finite real
    number; a bool (JSON's true or false) or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class Measure1D:
    """A probability measure: point masses plus uniform segments.

    ``atoms`` is a tuple of ``(position, mass)`` pairs and ``pieces`` a tuple
    of ``(left, right, mass)`` triples carrying uniform density
    ``mass / (right - left)``.  Atoms may sit inside pieces and positions may
    repeat; contributions add.  Total mass must be 1 within ``MASS_TOL``.
    Each value must be a finite number (``finite_number``, named as in
    ``atom 0 position`` or ``piece 1 mass``).
    """

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple(
            (finite_number(x, f"atom {k} position"), finite_number(m, f"atom {k} mass"))
            for k, (x, m) in enumerate(self.atoms)
        )
        pieces = tuple(
            (
                finite_number(l, f"piece {k} left"),
                finite_number(r, f"piece {k} right"),
                finite_number(m, f"piece {k} mass"),
            )
            for k, (l, r, m) in enumerate(self.pieces)
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        for x, m in atoms:
            if m <= 0.0:
                raise DomainError(f"atom at {x} has nonpositive mass {m}")
        for l, r, m in pieces:
            if not l < r:
                raise DomainError(f"piece ({l}, {r}) is not an interval")
            if m <= 0.0:
                raise DomainError(f"piece ({l}, {r}) has nonpositive mass {m}")
        total = sum(m for _, m in atoms) + sum(m for *_, m in pieces)
        if abs(total - 1.0) > MASS_TOL:
            raise DomainError(f"total mass {total!r} differs from 1 beyond {MASS_TOL}")

    @staticmethod
    def dirac(x: float) -> "Measure1D":
        return Measure1D(atoms=((x, 1.0),))

    @staticmethod
    def uniform(left: float, right: float) -> "Measure1D":
        return Measure1D(pieces=((left, right, 1.0),))

    @staticmethod
    def from_atoms(pairs: Iterable[tuple[float, float]]) -> "Measure1D":
        return Measure1D(atoms=tuple(pairs))

    def mean(self) -> float:
        """Exact first moment."""
        total = sum(x * m for x, m in self.atoms)
        total += sum(m * (l + r) / 2.0 for l, r, m in self.pieces)
        return total

    def second_moment(self) -> float:
        """Exact second moment; for a uniform segment E[X^2] = (l^2+lr+r^2)/3."""
        total = sum(x * x * m for x, m in self.atoms)
        total += sum(m * (l * l + l * r + r * r) / 3.0 for l, r, m in self.pieces)
        return total

    def to_json_dict(self) -> dict:
        return {
            "atoms": [[x, m] for x, m in self.atoms],
            "pieces": [[l, r, m] for l, r, m in self.pieces],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Measure1D":
        return Measure1D(**d)


@dataclass(frozen=True)
class QuantileGrid:
    """A nondecreasing sample of a quantile function at midpoint nodes.

    ``values[k]`` approximates ``X((k + 1/2) / n)`` for ``k = 0..n-1``.  The
    array is stored read-only; grids are safe to share.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True).reshape(-1)
        _check_grids(v[None])
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return midpoint_nodes(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuantileGrid) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash(self.values.tobytes())


def cdf(m: Measure1D, x: float) -> float:
    """CDF value ``mu((-inf, x])``; right-continuous and nondecreasing."""
    total = 0.0
    for p, mass in m.atoms:
        if p <= x:
            total += mass
    for l, r, mass in m.pieces:
        if x >= r:
            total += mass
        elif x > l:
            total += mass * (x - l) / (r - l)
    return min(max(total, 0.0), 1.0)


def quantile_pieces(m: Measure1D) -> list[tuple[float, float, float, float]]:
    """Affine pieces of the quantile function.

    Returns ``(s0, s1, x0, b)`` tuples with ``X(s) = x0 + b*(s - s0)`` on
    ``[s0, s1)``, where ``x0`` is the atom position or the segment breakpoint
    the piece starts at; atoms appear as flat pieces (b = 0), uniform
    stretches as rising pieces.
    The pieces are sorted, each starts where the previous one ends, and they
    cover (0, 1) up to the mass tolerance.
    """
    jumps: dict[float, float] = {}
    for x, mass in m.atoms:
        jumps[x] = jumps.get(x, 0.0) + mass
    xs = sorted(set(jumps).union(v for l, r, _ in m.pieces for v in (l, r)))
    segs: list[tuple[float, float, float, float]] = []
    acc = 0.0
    for lo, hi in zip(xs, xs[1:] + [None]):
        start, acc = acc, acc + jumps.get(lo, 0.0)
        if acc > start:
            segs.append((start, acc, lo, 0.0))
        if hi is None:
            break
        dens = 0.0
        for l, r, mass in m.pieces:
            if l <= lo and r >= hi:
                dens += mass / (r - l)
        start, acc = acc, acc + dens * (hi - lo)
        if acc > start:
            segs.append((start, acc, lo, 1.0 / ((acc - start) / (hi - lo))))
    return segs


def piece_index(ends: np.ndarray, s):
    """Index of the piece that holds level ``s``, given the sorted piece ends:
    the first piece ending after ``s`` (so the lookup is right-continuous),
    clamped to the last piece."""
    return np.minimum(np.searchsorted(ends, s, side="right"), len(ends) - 1)


def eval_pieces(pieces, s):
    """Value at levels ``s`` of the piecewise affine function given by
    ``(s0, s1, x0, b)`` pieces, levels past the last piece clamped to its end."""
    p = np.asarray(pieces, dtype=float)
    s0, s1, x0, b = p[piece_index(p[:, 1], s)].T
    return x0 + b * (np.minimum(s, s1) - s0)


def quantile(m: Measure1D, s: float) -> float:
    """Monotone rearrangement ``inf {x : cdf(m, x) > s}`` for ``s`` in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"quantile level {s} outside (0, 1)")
    return float(eval_pieces(quantile_pieces(m), s))


def to_quantile_grid(m: Measure1D, n: int) -> QuantileGrid:
    """Sample the quantile function at the n midpoint nodes (k + 1/2)/n."""
    return QuantileGrid(eval_pieces(quantile_pieces(m), midpoint_nodes(n)))


def _equal_runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and lengths of the runs of equal values in sorted ``v``."""
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return starts, np.diff(np.append(starts, v.size))


def from_quantile_grid(g: QuantileGrid) -> Measure1D:
    """Atomic measure with mass 1/n per grid value, exactly equal values merged."""
    starts, sizes = _equal_runs(g.values)
    return Measure1D(atoms=tuple(zip(g.values[starts].tolist(), (sizes / g.n).tolist())))


def expectation(g: QuantileGrid, f: Callable[[float], float]) -> float:
    """Midpoint-rule value of ``integral of f d(mu)`` through the quantile grid."""
    return float(np.mean([f(float(x)) for x in g.values]))
