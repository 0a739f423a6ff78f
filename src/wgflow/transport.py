"""Optimal transport at desk scale: the exact Wasserstein-2 distance between
one-dimensional measures through their quantile functions, and the finite
primal/dual transportation problem solved by the transportation simplex with
a complementary-slackness duality certificate.

The simplex and the certificate share one walk of a spanning forest,
``_walk``: over the basis tree it gives each pivot's potentials and, through
its parent pointers, the entering cell's cycle; over a plan's support it
gives the certificate's potentials and components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DomainError, Measure1D, QuantileGrid, _row_chunks, piece_index, quantile_pieces

BALANCE_TOL = 1e-12
MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-7
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteInstance:
    """A balanced discrete transport instance.

    ``source_points``/``sink_points`` hold the locations as (count, dim)
    arrays, the mass vectors each sum to 1 within ``BALANCE_TOL``, and
    ``cost[i, j]`` is the unit transport cost, by default the squared
    Euclidean distance between the points.
    """

    source_points: np.ndarray
    source_masses: np.ndarray
    sink_points: np.ndarray
    sink_masses: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        sp = np.atleast_2d(np.asarray(self.source_points, dtype=float))
        tp = np.atleast_2d(np.asarray(self.sink_points, dtype=float))
        p = np.asarray(self.source_masses, dtype=float).reshape(-1)
        q = np.asarray(self.sink_masses, dtype=float).reshape(-1)
        c = np.asarray(self.cost, dtype=float)
        if sp.shape[0] != p.size or tp.shape[0] != q.size:
            raise DomainError("point and mass counts disagree")
        if np.any(p <= 0) or np.any(q <= 0):
            raise DomainError("masses must be positive")
        if abs(p.sum() - 1.0) > BALANCE_TOL or abs(q.sum() - 1.0) > BALANCE_TOL:
            raise DomainError("instance is unbalanced: masses must each sum to 1")
        if c.shape != (p.size, q.size):
            raise DomainError(f"cost shape {c.shape} does not match {(p.size, q.size)}")
        for name, arr in (
            ("source_points", sp),
            ("sink_points", tp),
            ("source_masses", p),
            ("sink_masses", q),
            ("cost", c),
        ):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_weighted_points(sources, sinks, cost=None) -> "DiscreteInstance":
        """Build from ``(point, mass)`` pairs; points may be scalars or vectors."""
        sp = np.atleast_2d(np.asarray([np.atleast_1d(pt) for pt, _ in sources], dtype=float))
        tp = np.atleast_2d(np.asarray([np.atleast_1d(pt) for pt, _ in sinks], dtype=float))
        p = np.asarray([m for _, m in sources], dtype=float)
        q = np.asarray([m for _, m in sinks], dtype=float)
        if cost is None:
            diff = sp[:, None, :] - tp[None, :, :]
            cost = np.sum(diff * diff, axis=2)
        return DiscreteInstance(sp, p, tp, q, np.asarray(cost, dtype=float))

    @staticmethod
    def from_json_dict(d: dict) -> "DiscreteInstance":
        """``from_weighted_points(**d)``: an unknown or missing key raises ``TypeError``."""
        return DiscreteInstance.from_weighted_points(**d)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling matrix with its objective value."""

    x: np.ndarray
    objective: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        if np.any(x < -MARGINAL_TOL):
            raise DomainError("transport plan has negative entries")
        x[x < 0.0] = 0.0
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "objective", float(self.objective))

    def check(self, inst: DiscreteInstance, tol: float = MARGINAL_TOL):
        if np.max(np.abs(self.x.sum(axis=1) - inst.source_masses)) > tol:
            raise DomainError("plan row sums do not match source masses")
        if np.max(np.abs(self.x.sum(axis=0) - inst.sink_masses)) > tol:
            raise DomainError("plan column sums do not match sink masses")
        if abs(float(np.sum(self.x * inst.cost)) - self.objective) > tol:
            raise DomainError("plan objective is inconsistent with its matrix")


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Feasible dual potentials with their objective value."""

    u: np.ndarray
    v: np.ndarray
    objective: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).copy()
        v = np.asarray(self.v, dtype=float).copy()
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "objective", float(self.objective))

    def check(self, inst: DiscreteInstance, tol: float = MARGINAL_TOL):
        slack = inst.cost - self.u[:, None] - self.v[None, :]
        if np.min(slack) < -tol:
            raise DomainError("dual potentials violate u_i + v_j <= c_ij")
        obj = float(inst.source_masses @ self.u + inst.sink_masses @ self.v)
        if abs(obj - self.objective) > tol:
            raise DomainError("dual objective is inconsistent with its potentials")


def w2_quantile(g1: QuantileGrid, g2: QuantileGrid) -> float:
    """Discrete Wasserstein-2 distance sqrt((1/n) sum (X1_i - X2_i)^2)."""
    if g1.n != g2.n:
        raise DomainError(f"grid sizes differ: {g1.n} vs {g2.n}")
    return float(_row_w2(g1.values[None], g2.values)[0])


def _row_w2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry k is the discrete W2 distance between rows k of ``a`` and ``b`` (``b`` if 1-D)."""
    out = np.empty(a.shape[0])
    for rows in _row_chunks(*a.shape):
        d = a[rows] - (b if b.ndim == 1 else b[rows])
        out[rows] = np.sqrt(np.mean(d * d, axis=1))
    return out


def w2_exact_discrete(m1: Measure1D, m2: Measure1D) -> float:
    """Exact Wasserstein-2 distance between two measures.

    The squared distance is the integral over (0, 1) of the squared quantile
    difference; both quantiles are piecewise affine, so the integrand is
    integrated in closed form between consecutive piece ends of either
    quantile, with each interval's pieces found by ``piece_index``.
    """
    p1 = np.array(quantile_pieces(m1))
    p2 = np.array(quantile_pieces(m2))
    breaks = np.unique(np.concatenate([p1[:, :2].ravel(), p2[:, :2].ravel()]))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    rows = zip(
        breaks[:-1].tolist(),
        breaks[1:].tolist(),
        p1[piece_index(p1[:, 1], mids)].tolist(),
        p2[piece_index(p2[:, 1], mids)].tolist(),
    )
    total = 0.0
    for u, v, (_, _, a1, b1), (_, _, a2, b2) in rows:
        a = a1 - a2
        b = b1 - b2
        total += (
            a * a * (v - u)
            + a * b * (v * v - u * u)
            + b * b * (v**3 - u**3) / 3.0
        )
    return float(np.sqrt(max(total, 0.0)))


def _northwest_corner(p: np.ndarray, q: np.ndarray):
    m, n = p.size, q.size
    x = np.zeros((m, n))
    basis = []
    a = p.copy()
    b = q.copy()
    i = j = 0
    while True:
        t = min(a[i], b[j])
        x[i, j] = t
        basis.append((i, j))
        a[i] -= t
        b[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if (a[i] <= b[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return x, basis


def _walk(cells, cost, m, n):
    """Depth-first walk of the bipartite graph whose edges are ``cells``, on
    rows ``0..m-1`` (nodes ``0..m-1``) and columns ``0..n-1`` (nodes
    ``m..m+n-1``).

    Each component is walked from its lowest unreached row, which gets
    ``u = 0``; every tree edge ``(i, j)`` sets its far end so that
    ``u_i + v_j = cost[i, j]``, and a node's edges are taken in the order of
    ``cells``.  Returns ``u``, ``v``, the component of every node (-1 for a
    column no cell reaches) and every node's tree parent (-1 at a root).
    """
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0.0] * (m + n)
    comp = [-1] * (m + n)
    parent = [-1] * (m + n)
    ncomp = 0
    for root in range(m):
        if comp[root] >= 0:
            continue
        comp[root] = ncomp
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if comp[b] < 0:
                    comp[b] = ncomp
                    parent[b] = a
                    i, j = (a, b - m) if a < m else (b, a - m)
                    pot[b] = cost[i, j] - pot[a]
                    stack.append(b)
        ncomp += 1
    pot = np.array(pot)
    return pot[:m], pot[m:], np.array(comp), parent


def _cycle(parent, enter, m):
    """Cells of the cycle that ``enter`` closes in the basis tree: ``enter``,
    then the tree path from its column up to the common ancestor and down to
    its row.  Signs alternate +, -, +, ... along it.
    """
    i0, j0 = enter
    row_path = [i0]  # row i0 up to its root
    while parent[row_path[-1]] >= 0:
        row_path.append(parent[row_path[-1]])
    on_row_path = set(row_path)
    col_path = [m + j0]  # column j0 up to the first node on row_path
    while col_path[-1] not in on_row_path:
        col_path.append(parent[col_path[-1]])
    nodes = col_path + row_path[: row_path.index(col_path[-1])][::-1]
    return [enter] + [
        (a, b - m) if a < m else (b, a - m) for a, b in zip(nodes, nodes[1:])
    ]


def solve_primal(inst: DiscreteInstance) -> TransportPlan:
    """Minimal-cost plan via the transportation simplex.

    Bland's least-index rule is used for both the entering and the leaving
    cell, which rules out cycling on degenerate instances.  Each pivot walks
    the basis tree once: the walk gives the potentials, and its parent
    pointers give the entering cell's cycle.
    """
    p = inst.source_masses
    q = inst.sink_masses
    cost = inst.cost
    m, n = cost.shape
    x, basis = _northwest_corner(p, q)
    for _ in range(200 * m * n + 200):
        u, v, comp, parent = _walk(basis, cost, m, n)
        if np.any(comp != 0):
            raise RuntimeError("basis graph is not a spanning tree")
        reduced = cost - u[:, None] - v[None, :]
        for i, j in basis:
            reduced[i, j] = 0.0
        candidates = np.flatnonzero(reduced < -1e-12)
        if candidates.size == 0:
            break
        enter = divmod(int(candidates[0]), n)
        cycle = _cycle(parent, enter, m)
        minus = cycle[1::2]
        theta = min(x[c] for c in minus)
        leave = min(c for c in minus if x[c] == theta)
        for k, c in enumerate(cycle):
            x[c] += theta if k % 2 == 0 else -theta
        x[leave] = 0.0
        basis.remove(leave)
        basis.append(enter)
    else:
        raise RuntimeError("transportation simplex did not terminate")
    x[x < 0.0] = 0.0
    plan = TransportPlan(x, float(np.sum(cost * x)))
    plan.check(inst)
    return plan


def solve_dual(inst: DiscreteInstance, plan: TransportPlan) -> DualSolution:
    """Dual potentials certifying the optimality of ``plan``.

    Potentials are recovered from complementary slackness on the plan's
    support graph; when that graph is disconnected the free per-component
    shifts are fixed by the tightest feasible values (a shortest-path
    computation over the inter-component slack).  Infeasibility after the
    recovery means the plan was not optimal.
    """
    cost = inst.cost
    m, n = cost.shape
    u, v, comp, _ = _walk(np.argwhere(plan.x > _SUPPORT_TOL).tolist(), cost, m, n)
    comp_row, comp_col = comp[:m], comp[m:]
    if np.any(comp_col < 0):
        # columns with no support edge cannot occur for positive sink masses
        raise DomainError("plan support misses a sink; plan is not feasible")

    ncomp = int(comp.max()) + 1
    if ncomp > 1:
        slack = cost - u[:, None] - v[None, :]
        # tightest shift delta_a - delta_b <= min slack over rows(a) x cols(b)
        w = np.full((ncomp, ncomp), np.inf)
        np.minimum.at(w, (comp_row[:, None], comp_col[None, :]), slack)
        np.fill_diagonal(w, np.inf)
        # Bellman-Ford, relaxing every component at once in each sweep
        delta = np.zeros(ncomp)
        for _ in range(ncomp + 1):
            best = np.min(w + delta, axis=1)
            lower = delta > best + 1e-15
            if not lower.any():
                break
            delta[lower] = best[lower]
        else:
            raise DomainError(
                "no feasible dual completion exists; the plan is not optimal"
            )
        u = u + delta[comp_row]
        v = v - delta[comp_col]

    dual = DualSolution(
        u, v, float(inst.source_masses @ u + inst.sink_masses @ v)
    )
    dual.check(inst)
    if abs(dual.objective - plan.objective) > DUALITY_TOL:
        raise DomainError(
            "duality gap exceeds tolerance; the supplied plan is not optimal"
        )
    return dual
