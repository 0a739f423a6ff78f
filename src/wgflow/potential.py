"""Even interaction potentials W(x) = eta*|x| + (beta/2)*x^2 + sum c*|x|^p,
their interaction energy on quantile grids, and the two force fields the
dynamics use: the tie-excluding pointwise field and the index-ordered
subgradient of the energy on the monotone cone.

Every pairwise sum goes through one kernel over sorted weighted points:
``pair_energy``, ``pair_force``, both from one pass (``pair_energy_force``),
and ``pair_hessian``, which applies the energy's Hessian on the monotone cone
to a vector.  The first three take one row of points or an array of rows,
such as one block of a trajectory's rows.  The cusp and quadratic terms are closed form,
and a power term with p = 2 joins the quadratic.  Every other power term is
summed once per pair over the lower triangle of the sorted points, where
the gaps ``x_i - x_j`` are nonnegative, in tiles (``_lower_tiles``); no n x n
array is held, and the tiles of one call share one workspace (``_gap_tiles``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DomainError, QuantileGrid, finite_number


@dataclass(frozen=True)
class Potential:
    """Parametric even potential with W(0) = 0.

    ``eta`` weights the |x| cusp (negative means a repulsive concave kink at
    the origin), ``beta`` the x^2/2 confinement, and each ``(c, p)`` in
    ``terms`` adds ``c * |x|**p`` with ``p > 1`` so the cusp coefficient is
    unambiguous; each value must be a finite number.  ``jko_eligible`` is
    False when any exponent exceeds 2, in which case the quadratic growth
    bound fails and the implicit scheme refuses the potential; evaluation and
    particle dynamics still work.
    """

    eta: float = 0.0
    beta: float = 0.0
    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eta", finite_number(self.eta, "eta"))
        object.__setattr__(self, "beta", finite_number(self.beta, "beta"))
        terms = tuple(
            (finite_number(c, f"term {k} coefficient"), finite_number(p, f"term {k} exponent"))
            for k, (c, p) in enumerate(self.terms)
        )
        object.__setattr__(self, "terms", terms)
        for c, p in terms:
            if not p > 1.0:
                raise DomainError(f"exponent {p} must exceed 1")

    @property
    def jko_eligible(self) -> bool:
        return all(p <= 2.0 for _, p in self.terms)

    def __call__(self, x):
        return evaluate(self, x)

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "beta": self.beta, "terms": [[c, p] for c, p in self.terms]}

    @staticmethod
    def from_json_dict(d: dict) -> "Potential":
        return Potential(**d)


def evaluate(W: Potential, x):
    """W(x); accepts scalars or arrays."""
    ax = np.abs(x)
    out = W.eta * ax + 0.5 * W.beta * np.square(x)
    for c, p in W.terms:
        out = out + c * ax**p
    return out


def smooth_part(W: Potential, x):
    """The C1 remainder after removing the cusp: W(x) - eta*|x|."""
    ax = np.abs(x)
    out = 0.5 * W.beta * np.square(x)
    for c, p in W.terms:
        out = out + c * ax**p
    return out


def deriv_smooth(W: Potential, x):
    """Derivative of the smooth part; zero at the origin since every p > 1."""
    out = W.beta * np.asarray(x, dtype=float)
    s = np.sign(x)
    ax = np.abs(x)
    for c, p in W.terms:
        out = out + c * p * ax ** (p - 1.0) * s
    return out if np.ndim(x) else float(out)


PANEL_ROWS = 64
PAIR_TILE = 64 * 192


def _lower_tiles(n: int):
    """Tiles ``(lo, hi, c0, c1)``, rows ``lo:hi`` by columns ``c0:c1``, that
    hold every pair ``i > j`` of ``0:n`` once: row panels of ``PANEL_ROWS``
    rows, each cut into column tiles of at most ``PAIR_TILE`` elements.  A
    tile with ``c1 > lo`` crosses the diagonal and also holds pairs
    ``i <= j``."""
    rows = min(PANEL_ROWS, PAIR_TILE)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        width = PAIR_TILE // (hi - lo)
        for c0 in range(0, hi, width):
            yield lo, hi, c0, min(hi, c0 + width)


def _gap_tiles(x: np.ndarray):
    """Yield ``(k, lo, hi, c0, c1, d, q)`` for each row ``k`` of sorted points
    ``x`` (one row, or an array of rows) and each tile of ``_lower_tiles``:
    ``d[a, b] = x_k[lo + a] - x_k[c0 + b]``, clamped at 0 only in a tile that
    crosses the diagonal, and ``q``, free for their powers, are views of one
    ``(2, size)`` workspace taken once per call.  ``d`` is the product
    ``[x_i, 1] @ [1, -x_j]``: both products are exact, so it has the bits of
    ``np.subtract``, which is slower on narrow tiles."""
    n = x.shape[-1]
    tiles = list(_lower_tiles(n))
    work = np.empty((2, max(((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in tiles), default=0)))
    points, minus = np.ones((n, 2)), np.ones((2, n))
    for k, row in enumerate(x.reshape(-1, n)):
        points[:, 0] = row
        np.subtract(0.0, row, out=minus[1])
        for lo, hi, c0, c1 in tiles:
            size = (hi - lo) * (c1 - c0)
            d = work[0, :size].reshape(hi - lo, c1 - c0)
            q = work[1, :size].reshape(hi - lo, c1 - c0)
            np.matmul(points[lo:hi], minus[:, c0:c1], out=d)
            if c1 > lo:
                np.maximum(d, 0.0, out=d)
            yield k, lo, hi, c0, c1, d, q


def _power(d: np.ndarray, e: float, out: np.ndarray):
    """``d ** e`` written into ``out``, bit for bit: numpy's ``**`` takes
    ``np.sqrt`` for e = 0.5 and ``np.square`` for e = 2, ``np.power``
    otherwise."""
    if e == 0.5:
        np.sqrt(d, out=out)
    elif e == 2.0:
        np.square(d, out=out)
    else:
        np.power(d, e, out=out)


def _split(W: Potential) -> tuple[float, tuple[tuple[float, float], ...]]:
    """W's quadratic coefficient with each p = 2 term folded in, since
    ``c|x|^2`` is ``(2c/2) x^2``, and W's other power terms with ``c != 0``:
    a term that adds 0 takes no pass over the pairs."""
    beta = W.beta
    for c, p in W.terms:
        if p == 2.0:
            beta += 2.0 * c
    return beta, tuple((c, p) for c, p in W.terms if p != 2.0 and c != 0.0)


def _tie_signs(x: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Entry i is sum_j m_j sign(x_i - x_j) with tied points excluded, for
    sorted points ``x`` or per row of an array of them: the mass below the
    run of points equal to x_i minus the mass above it, read off the
    cumulative masses ``cum`` (with a leading 0) at the run's first index
    and one past its last, the running maximum of run starts and the
    running minimum of run ends."""
    n = x.shape[-1]
    k = np.arange(n)
    starts = np.ones(x.shape, dtype=bool)
    np.not_equal(x[..., 1:], x[..., :-1], out=starts[..., 1:])
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    below = np.maximum.accumulate(np.where(starts, k, 0), axis=-1)
    upto = np.minimum.accumulate(np.where(ends, k + 1, n)[..., ::-1], axis=-1)[..., ::-1]
    return cum[below] + cum[upto] - cum[-1]


def _pair_sums(W: Potential, x: np.ndarray, m: np.ndarray, cone: bool, energy: bool, force: bool):
    """``(energy, force)`` of ``pair_energy_force``; a part not asked for is
    ``None`` and is not computed.  ``x`` is one row of sorted points or an
    array of such rows, all with the weights ``m``; an array of rows gives an
    energy per row and a force row per row.  The closed-form parts hold
    temporaries the size of ``x``: a pass over a trajectory hands it one
    block of rows at a time (``jko._row_blocks``).

    The cusp and quadratic parts are closed form.  ``np.vecdot`` takes the
    same dot product on each row that ``m @ row`` takes on one, so a row's
    parts are bit for bit those of the row alone.  With ``s_i`` the mass
    below point i minus the mass above it, ties in index order, the cusp
    energy is ``eta sum_i m_i (x_i - m @ x) s_i``; ``s`` depends on ``m``
    only.

    A power term ``c|d|^p`` is summed row by row over the lower triangle of
    the sorted points in the tiles of ``_gap_tiles``: there
    ``d = max(x_i - x_j, 0)``, so a tile needs no ``abs`` or ``sign``, and
    pairs above the diagonal and ties add 0.  One power ``q = d**(p - 1)``
    gives the pair force ``c p q``, added to row i and taken from row j, and
    the pair energy ``c q d``.
    """
    beta, terms = _split(W)
    n = x.shape[-1]
    cum = np.concatenate(([0.0], np.cumsum(m)))
    signs = cum[:-1] + cum[1:] - cum[-1]
    xc = x - np.vecdot(x, m, keepdims=True)
    e = np.asarray(W.eta * np.vecdot(m * xc, signs) + 0.5 * beta * np.vecdot(m, xc**2)) if energy else None
    f = W.eta * (signs if cone else _tie_signs(x, cum)) + beta * xc if force else None
    # the power terms, row by row, on flat views of the outputs
    es = None if e is None else e.reshape(-1)
    fs = None if f is None else f.reshape(-1, n)
    for k, lo, hi, c0, c1, d, q in _gap_tiles(x) if terms else ():
        mi, mj = m[lo:hi], m[c0:c1]
        for c, p in terms:
            _power(d, p - 1.0, q)
            if force:
                fs[k, lo:hi] += (c * p) * (q @ mj)
                fs[k, c0:c1] -= (c * p) * (mi @ q)
            if energy:
                es[k] += c * float(mi @ np.multiply(q, d, out=q) @ mj)
    return (float(e) if energy and x.ndim == 1 else e), f


def pair_energy(W: Potential, x: np.ndarray, m: np.ndarray):
    """(1/2) sum_{i,j} m_i m_j W(x_i - x_j) for sorted points ``x`` with
    weights ``m`` summing to 1: a float for one row ``x``, and for an array
    of rows the array of their energies, each bit for bit the row's own.
    An array of rows is taken whole, so a trajectory bounds the memory by
    handing in one block of rows at a time (``jko._row_blocks``).

    The cusp is the linear form eta * sum_i m_i x_i s_i in the ordered values
    (s the mass below point i minus the mass above it), the quadratic is
    beta/2 times the variance; both are O(n), and a power term with p = 2
    joins the quadratic.  Only the other power terms are summed pair by pair,
    once per pair, over the lower triangle in tiles of at most
    ``PAIR_TILE`` elements.
    """
    return _pair_sums(W, x, m, cone=True, energy=True, force=False)[0]


def pair_force(W: Potential, x: np.ndarray, m: np.ndarray, cone: bool) -> np.ndarray:
    """Entry i is sum_j m_j W'(x_i - x_j) for sorted points ``x`` with weights
    ``m`` summing to 1; an array of rows gives one such row per row.

    W' is odd with a jump at 0 from the cusp.  With ``cone`` a tied pair takes
    the cusp sign from the index order, which makes ``m * force`` the energy's
    gradient on the monotone cone; otherwise tied pairs are excluded, which is
    the pointwise velocity field.  The smooth terms vanish on ties either way.
    Power terms other than p = 2 take one lower-triangle pass, as in
    ``pair_energy``: each pair's force is added to one point and taken from
    the other.
    """
    return _pair_sums(W, x, m, cone, energy=False, force=True)[1]


def pair_energy_force(W: Potential, x: np.ndarray, m: np.ndarray, cone: bool):
    """``(pair_energy(W, x, m), pair_force(W, x, m, cone))`` from one pass over
    the pairs: each power is taken once and gives both."""
    return _pair_sums(W, x, m, cone, energy=True, force=True)


def pair_hessian(W: Potential, x: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entry i is sum_j m_j W''(x_i - x_j) (v_i - v_j) for sorted points ``x``
    with weights ``m`` summing to 1: the Hessian of the energy on the monotone
    cone applied to ``v``, divided by ``m``.

    The cusp is linear on the cone and adds nothing; the quadratic, with any
    p = 2 term folded in, adds ``beta * (v - m @ v)``.  Every other power term
    takes the lower-triangle tiles of ``pair_energy``, where the symmetric
    pair weight ``c p (p-1) q / d`` with ``q = d**(p - 1)`` enters rows i and
    j alike.  A tied pair (``d = 0``) gets weight 0: that is ``W''(0)`` for
    p > 2, and for p < 2, where ``W''(0)`` is infinite, it is never formed.
    A pair closer than the smallest normal float is not divided, since
    ``q / d`` can pass the float range there: it keeps the weight
    ``c p (p-1) q``, which is 0 only on a tie.
    Memory stays within one tile's workspace: the Hessian is never held.
    """
    beta, terms = _split(W)
    h = beta * (v - m @ v)
    if not terms:
        return h
    # rows (m, m v): a tile's product with them gives both sums of a row
    mv = np.stack((m, m * v))
    tiny = np.finfo(float).tiny
    for _, lo, hi, c0, c1, d, w in _gap_tiles(x):
        apart = d >= tiny
        for c, p in terms:
            _power(d, p - 1.0, w)
            np.divide(w, d, out=w, where=apart)
            k = c * p * (p - 1.0)
            right = k * (w @ mv[:, c0:c1].T)
            left = k * (mv[:, lo:hi] @ w)
            h[lo:hi] += v[lo:hi] * right[:, 0] - right[:, 1]
            h[c0:c1] += v[c0:c1] * left[0] - left[1]
    return h


def interaction_energy(W: Potential, g: QuantileGrid) -> float:
    """Grid interaction energy (1/(2 n^2)) sum_{i,j} W(X_i - X_j)."""
    return pair_energy(W, g.values, np.full(g.n, 1.0 / g.n))


def velocity_profile(W: Potential, g: QuantileGrid) -> np.ndarray:
    """Velocity of the flow at every grid point: minus the mean pairwise force.

    Tied values are excluded from the interaction, so a fully collapsed grid
    is stationary under this field.
    """
    return -pair_force(W, g.values, np.full(g.n, 1.0 / g.n), cone=False)


def energy_subgradient(W: Potential, g: QuantileGrid) -> np.ndarray:
    """Gradient of ``interaction_energy`` restricted to the monotone cone.

    Component ``i`` equals (1/n^2) [ sum_j dW_smooth(X_i - X_j)
    + eta * (2(i+1) - n - 1) ]: on the cone the cusp contribution is an exact
    linear form in the grid values, with the sign taken from the index order
    rather than the (possibly tied) values.  This is the field that drives
    the implicit scheme off atomic states.
    """
    return pair_force(W, g.values, np.full(g.n, 1.0 / g.n), cone=True) / g.n


def curvature_bound(W: Potential, radius: float) -> float:
    """Upper bound for |d2/dx2 of the smooth part| on |x| <= radius.

    For exponents below 2 the second derivative blows up near 0; the bound is
    then only a step-size seed and line search corrects it.
    """
    r = max(float(radius), 1.0)
    bound = abs(W.beta)
    for c, p in W.terms:
        bound += abs(c) * p * (p - 1.0) * r ** (p - 2.0)
    return bound


@dataclass(frozen=True)
class ConvexityCertificate:
    """Constants making W(x) + (lambda_second/2) x^2 + lambda_prime |x| convex
    on the whole line (see ``convexity_certificate``).

    ``lambda_minus = max(0, lambda_prime, lambda_second)`` feeds the implicit
    scheme's step restriction.
    """

    lambda_prime: float
    lambda_second: float

    @property
    def lambda_minus(self) -> float:
        return max(0.0, self.lambda_prime, self.lambda_second)


def convexity_certificate(W: Potential) -> ConvexityCertificate:
    """Closed-form certificate, convex on the whole line by construction.

    lambda_prime absorbs a negative cusp; lambda_second absorbs negative
    curvature from beta and from negative-coefficient power terms.  A
    negative term is refused unless p = 2: its curvature
    ``c p (p-1) |x|^(p-2)`` is unbounded below at 0 for p < 2 and at
    infinity for p > 2, so no finite constants exist.  Every potential let
    through is convex once compensated, term by term: the cusp's coefficient
    becomes ``eta + max(0, -eta) >= 0``; the quadratic's
    ``beta + max(0, -beta) >= 0``; a negative term, with p = 2, has
    curvature ``2c``, which ``lambda_second`` covers; positive terms are
    convex.  So no sampled check is needed (``tests/oracles.py`` keeps one as
    a property test).
    """
    lam_prime = max(0.0, -W.eta)
    lam_second = max(0.0, -W.beta)
    for c, p in W.terms:
        if c < 0.0 and p != 2.0:
            side, end = ("below", "the origin") if p < 2.0 else ("above", "infinity")
            raise DomainError(
                f"term {c}*|x|^{p}: a negative power {side} 2 is concave without "
                f"bound at {end}; no convexity certificate exists"
            )
        if c < 0.0:
            lam_second += -2.0 * c
    return ConvexityCertificate(lam_prime, lam_second)
