"""Even interaction potentials W(x) = eta*|x| + (beta/2)*x^2 + sum c*|x|^p,
their interaction energy on quantile grids, and the two force fields the
dynamics use: the tie-excluding pointwise field and the index-ordered
subgradient of the energy on the monotone cone.

Every pairwise sum goes through one kernel over sorted weighted points,
``pair_energy`` and ``pair_force``, and ``pair_hessian`` applies the
energy's Hessian on the monotone cone to a vector in the same row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DomainError, QuantileGrid


@dataclass(frozen=True)
class Potential:
    """Parametric even potential with W(0) = 0.

    ``eta`` weights the |x| cusp (negative means a repulsive concave kink at
    the origin), ``beta`` the x^2/2 confinement, and each ``(c, p)`` in
    ``terms`` adds ``c * |x|**p`` with ``p > 1`` so the cusp coefficient is
    unambiguous.  ``jko_eligible`` is False when any exponent exceeds 2, in
    which case the quadratic growth bound fails and the implicit scheme
    refuses the potential; evaluation and particle dynamics still work.
    """

    eta: float = 0.0
    beta: float = 0.0
    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "beta", float(self.beta))
        terms = tuple((float(c), float(p)) for c, p in self.terms)
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


# Largest number of pair differences the dense power-term sums hold at once.
PAIR_BLOCK = 1 << 18


def _pair_blocks(x: np.ndarray):
    """Row blocks ``(rows, x[rows, None] - x[None, :])`` of at most
    ``PAIR_BLOCK`` elements (one row when a row alone is longer)."""
    step = max(1, PAIR_BLOCK // x.size)
    for lo in range(0, x.size, step):
        rows = slice(lo, lo + step)
        yield rows, x[rows, None] - x[None, :]


def _cusp_signs(x: np.ndarray, m: np.ndarray, cone: bool) -> np.ndarray:
    """Entry i is sum_j m_j sign(x_i - x_j): the mass below point i minus the
    mass above it, from one cumulative sum.  With ``cone`` the sign of a tie
    is the index order; otherwise tied points are excluded."""
    c = np.concatenate(([0.0], np.cumsum(m)))
    if cone:
        below, upto = c[:-1], c[1:]
    else:
        below = c[np.searchsorted(x, x, side="left")]
        upto = c[np.searchsorted(x, x, side="right")]
    return below + upto - c[-1]


def pair_energy(W: Potential, x: np.ndarray, m: np.ndarray) -> float:
    """(1/2) sum_{i,j} m_i m_j W(x_i - x_j) for sorted points ``x`` with
    weights ``m`` summing to 1.

    The cusp is the linear form eta * sum_i m_i x_i s_i in the ordered values
    (s from ``_cusp_signs``), the quadratic is beta/2 times the variance;
    both are O(n log n).  Only power terms are summed pair by pair, in blocks.
    """
    xc = x - m @ x
    e = W.eta * float((m * xc) @ _cusp_signs(x, m, cone=True))
    e += 0.5 * W.beta * float(m @ xc**2)
    if W.terms:
        powers = Potential(terms=W.terms)
        for rows, d in _pair_blocks(x):
            e += 0.5 * float(m[rows] @ smooth_part(powers, d) @ m)
    return e


def pair_force(W: Potential, x: np.ndarray, m: np.ndarray, cone: bool) -> np.ndarray:
    """Entry i is sum_j m_j W'(x_i - x_j) for sorted points ``x`` with weights
    ``m`` summing to 1.

    W' is odd with a jump at 0 from the cusp.  With ``cone`` a tied pair takes
    the cusp sign from the index order, which makes ``m * force`` the energy's
    gradient on the monotone cone; otherwise tied pairs are excluded, which is
    the pointwise velocity field.  The smooth terms vanish on ties either way.
    """
    f = W.eta * _cusp_signs(x, m, cone) + W.beta * (x - m @ x)
    if W.terms:
        powers = Potential(terms=W.terms)
        f += np.concatenate([deriv_smooth(powers, d) @ m for _, d in _pair_blocks(x)])
    return f


def pair_hessian(W: Potential, x: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entry i is sum_j m_j W''(x_i - x_j) (v_i - v_j) for sorted points ``x``
    with weights ``m`` summing to 1: the Hessian of the energy on the monotone
    cone applied to ``v``, divided by ``m``.

    The cusp is linear on the cone and adds nothing; the quadratic adds
    ``beta * (v - m @ v)``.  A tied pair is given an infinite distance, so a
    power below 2 gives it weight ``inf**(p - 2) = 0`` and ``W''(0) = inf``
    is never formed.  Memory stays within the ``_pair_blocks`` budget: the
    Hessian is never held.
    """
    h = W.beta * (v - m @ v)
    if W.terms:
        mv = m * v
        rows_out = []
        for rows, d in _pair_blocks(x):
            ad = np.abs(d, out=d)
            ad[ad == 0.0] = np.inf
            w = sum(c * p * (p - 1.0) * ad ** (p - 2.0) for c, p in W.terms)
            rows_out.append(v[rows] * (w @ m) - w @ mv)
        h = h + np.concatenate(rows_out)
    return h


def interaction_energy(W: Potential, g: QuantileGrid) -> float:
    """Grid interaction energy (1/(2 n^2)) sum_{i,j} W(X_i - X_j)."""
    return pair_energy(W, g.values, np.full(g.n, 1.0 / g.n))


def velocity_field(W: Potential, g: QuantileGrid, i: int) -> float:
    """Velocity of the flow at grid point ``i``: minus the mean pairwise force.

    Tied values are excluded from the interaction, so a fully collapsed grid
    is stationary under this field.
    """
    n = g.n
    if not 0 <= i < n:
        raise DomainError(f"index {i} outside 0..{n - 1}")
    return float(velocity_profile(W, g)[i])


def velocity_profile(W: Potential, g: QuantileGrid) -> np.ndarray:
    """velocity_field evaluated at every grid index."""
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
    """Constants making W(x) + (lambda_second/2) x^2 + lambda_prime |x| convex.

    ``lambda_minus = max(0, lambda_prime, lambda_second)`` feeds the implicit
    scheme's step restriction.  Construction fails if midpoint convexity of
    the compensated potential does not hold on a sampled grid in
    ``[-radius, radius]``.
    """

    lambda_prime: float
    lambda_second: float
    radius: float

    @property
    def lambda_minus(self) -> float:
        return max(0.0, self.lambda_prime, self.lambda_second)


def convexity_certificate(W: Potential, radius: float = 10.0) -> ConvexityCertificate:
    """Conservative closed-form certificate, numerically verified.

    lambda_prime absorbs a negative cusp; lambda_second absorbs negative
    quadratic curvature from beta and from negative-coefficient power terms
    evaluated at the working radius.  A negative term with ``1 < p < 2`` is
    refused: its curvature ``c p (p-1) |x|^(p-2)`` is unbounded below at 0,
    so no finite constants exist.  The sampled midpoint check runs after.

    For every potential the implicit scheme accepts, lambda_prime and
    lambda_second do not depend on ``radius``: ``jko_eligible`` rules out
    p > 2 and negative terms with p < 2 are refused, so a negative term has
    p = 2, where ``r**(p - 2) = 1``.
    """
    r = max(float(radius), 1.0)
    lam_prime = max(0.0, -W.eta)
    lam_second = max(0.0, -W.beta)
    for c, p in W.terms:
        if c < 0.0 and p < 2.0:
            raise DomainError(
                f"term {c}*|x|^{p}: a negative power below 2 is concave without "
                "bound at the origin; no convexity certificate exists"
            )
        if c < 0.0:
            lam_second += -c * p * (p - 1.0) * r ** (p - 2.0)
    cert = ConvexityCertificate(lam_prime, lam_second, r)
    _verify_midpoint_convexity(W, cert)
    return cert


def _verify_midpoint_convexity(W: Potential, cert: ConvexityCertificate, samples: int = 129):
    xs = np.linspace(-cert.radius, cert.radius, samples)
    compensation = 0.5 * cert.lambda_second * xs**2 + cert.lambda_prime * np.abs(xs)
    f = evaluate(W, xs) + compensation
    # rounding in f grows with its summands, which may cancel to f = 0
    sizes = Potential(abs(W.eta), abs(W.beta), tuple((abs(c), p) for c, p in W.terms))
    scale = 1.0 + float(np.max(evaluate(sizes, xs) + compensation))
    # pairs with an on-grid midpoint: indices of equal parity
    for step in (2, 4, 8, 16, 32):
        if step >= samples:
            break
        lo = f[:-step]
        hi = f[step:]
        mid = f[step // 2 : samples - step // 2]
        if np.any(2.0 * mid > lo + hi + 1e-9 * scale):
            raise DomainError(
                "convexity certificate verification failed: compensated potential "
                "is not midpoint convex on the sampled grid"
            )
