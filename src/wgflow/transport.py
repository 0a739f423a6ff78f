"""Optimal transport at desk scale: the exact Wasserstein-2 distance between
one-dimensional measures through their quantile functions, and the finite
primal/dual transportation problem solved by the transportation simplex with
a complementary-slackness duality certificate.

The simplex prices every non-basic cell and enters the most negative reduced
cost (Dantzig's rule), or the least-index candidate right after a degenerate
pivot (Bland's rule); a cell is a candidate when its reduced cost is below
``-1e-12`` by more than the rounding its two potentials carry.  It keeps its
basis tree between pivots and sets again only the potentials of the subtree
that a pivot re-hangs; the certificate walks the plan's support once with
``_walk`` for its potentials and components.  Both set ``u_i + v_j = c_ij``
along tree edges from row 0 of each component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DomainError, Measure1D, QuantileGrid, _row_w2sq, eval_pieces, piece_index, quantile_pieces

BALANCE_TOL = 1e-12
MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-7
_SUPPORT_TOL = 1e-12
_REDUCED_TOL = 1e-12
_ROUNDING = 2.0**-51  # four times the unit roundoff of a double


class PivotCapReached(RuntimeError):
    """The transportation simplex made ``pivots`` pivots, its cap of
    ``200*m*n + 200``, without reaching an optimal basis.  Its pivot rules
    end on every instance, so the cap guards against a fault, not a
    cycle."""

    def __init__(self, pivots: int):
        super().__init__("transportation simplex did not terminate")
        self.pivots = pivots


@dataclass(frozen=True, eq=False)
class DiscreteInstance:
    """A balanced discrete transport instance.

    ``source_points``/``sink_points`` hold the locations as (count, dim)
    arrays of one dimension, the mass vectors each sum to 1 within
    ``BALANCE_TOL``, and ``cost[i, j]`` is the unit transport cost, by default
    the squared Euclidean distance between the points.  Every entry is
    finite; a field that is not is refused by name.
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
        if sp.shape[1] != tp.shape[1]:
            raise DomainError(
                f"source_points have dimension {sp.shape[1]}, sink_points {tp.shape[1]}"
            )
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
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
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
        if cost is None and sp.shape[1] == tp.shape[1]:  # else refused when built
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
    return float(np.sqrt(_row_w2sq(g1.values[None], g2.values)[0]))


def w2_exact_discrete(m1: Measure1D, m2: Measure1D) -> float:
    """Exact Wasserstein-2 distance between two measures.

    The squared distance is the integral over (0, 1) of the squared quantile
    difference.  Both quantiles are piecewise affine, so between consecutive
    piece ends of either quantile the difference is ``d + b*(s - u)``, with
    ``d`` its value at the interval's left end ``u`` and ``b`` the difference
    of the slopes there, and the square integrates in closed form.
    """
    p1 = np.array(quantile_pieces(m1))
    p2 = np.array(quantile_pieces(m2))
    breaks = np.unique(np.concatenate([p1[:, :2].ravel(), p2[:, :2].ravel()]))
    u, h = breaks[:-1], np.diff(breaks)
    d = eval_pieces(p1, u) - eval_pieces(p2, u)
    b = p1[piece_index(p1[:, 1], u), 3] - p2[piece_index(p2[:, 1], u), 3]
    total = np.sum(h * (d * d + d * b * h + b * b * h * h / 3.0))
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
    ``cells``.  Returns ``u``, ``v`` and the component of every node (-1 for
    a column no cell reaches).
    """
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0.0] * (m + n)
    comp = [-1] * (m + n)
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
                    i, j = (a, b - m) if a < m else (b, a - m)
                    pot[b] = cost[i, j] - pot[a]
                    stack.append(b)
        ncomp += 1
    pot = np.array(pot)
    return pot[:m], pot[m:], np.array(comp)


def _hang(adj, cost, parent, depth, pot, err, low, m, a, b):
    """Hang node ``b``, with everything beyond it in the tree ``adj``, under
    node ``a``: reset ``parent``, ``depth``, ``pot``, ``err`` and ``low``
    down from ``b``, each edge ``(i, j)`` setting its far end so that
    ``u_i + v_j = cost[i][j]``.  A subtraction rounds by at most half a unit
    in the last place of its result, so ``err``, the sum of ``_ROUNDING``
    times the potentials along the tree path, bounds four times the rounding
    a potential carries; ``low`` is the potential less ``err``.  Nodes are
    numbered as in ``_walk``.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        parent[b] = a
        depth[b] = depth[a] + 1
        pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
        err[b] = err[a] + _ROUNDING * abs(pot[b])
        low[b] = pot[b] - err[b]
        for d in adj[b]:
            if d != a:
                stack.append((b, d))


def _pivot_cap(m: int, n: int) -> int:
    return 200 * m * n + 200


def solve_primal(inst: DiscreteInstance) -> TransportPlan:
    """Minimal-cost plan via the transportation simplex.

    Each potential carries the rounding of the subtractions along its tree
    path from row 0, and a reduced cost that of its own two potentials, so
    a large cost elsewhere in the matrix does not blur the test of a small
    one.  The reduced cost of a non-basic cell ``(i, j)`` is raised by a
    bound on that rounding, ``1e-12 + 2**-51 * (|c_ij| + S_i + S_j)`` with
    ``S`` the sum of ``|u|`` and ``|v|`` along a potential's path
    (``_hang``'s ``err``); the cell is a candidate when the raised value is
    below 0.  The most negative raised value enters (Dantzig's rule, ties to
    the least row-major index), except right after a degenerate pivot
    (theta = 0), when the least-index candidate enters; the leaving cell is
    always the least index among the tied ones.  This ends: each
    non-degenerate pivot lowers the objective, and an endless run of
    degenerate pivots would follow Bland's rule from its second pivot on,
    which does not cycle.  The basis tree is built once from the
    north-west-corner start, rooted at row 0, and kept between pivots with
    every node's parent, depth, potential and rounding bound.  The entering
    cell's cycle is found by climbing from its row and its column until the
    two paths meet.  The leaving cell cuts off a subtree; it is hung by the
    entering cell under the rest, and its potentials alone are set again.
    Every potential is thus computed along its tree path from row 0 with
    the same arithmetic as a walk of the whole tree.  After
    ``200*m*n + 200`` pivots it gives up with ``PivotCapReached``.
    """
    p = inst.source_masses
    q = inst.sink_masses
    cost = inst.cost
    c = cost.tolist()
    m, n = cost.shape
    x, cells = _northwest_corner(p, q)
    x = x.tolist()
    nonbasic = np.ones((m, n), dtype=bool)
    adj = [[] for _ in range(m + n)]
    parent = [-1] * (m + n)
    depth = [0] + [-1] * (m + n - 1)
    pot = [0.0] * (m + n)
    err = [0.0] * (m + n)
    low = [0.0] * (m + n)
    # each north-west-corner cell must join one new row or column to the tree
    for i, j in cells:
        a, b = (i, m + j) if depth[i] >= 0 else (m + j, i)
        if depth[a] < 0 or depth[b] >= 0:
            raise RuntimeError("basis graph is not a spanning tree")
        nonbasic[i, j] = False
        adj[i].append(m + j)
        adj[m + j].append(i)
        _hang(adj, c, parent, depth, pot, err, low, m, a, b)
    if -1 in depth:
        raise RuntimeError("basis graph is not a spanning tree")
    # reduced costs raised by the rounding they may carry: a candidate is below 0
    ceiling = cost + (_REDUCED_TOL + _ROUNDING * np.abs(cost))
    cap = _pivot_cap(m, n)
    degenerate = False
    for _ in range(cap):
        uv = np.array(low)
        reduced = np.where(nonbasic, ceiling - uv[:m, None] - uv[None, m:], 0.0)
        # right after a degenerate pivot the least index enters (Bland's
        # rule), else the most negative reduced cost (Dantzig's rule)
        k = int((reduced < 0.0).argmax() if degenerate else reduced.argmin())
        if not reduced.flat[k] < 0.0:
            break
        i0, j0 = divmod(k, n)
        # climb from both ends to their meeting node; the tree edges at even
        # distance from either end lose theta, the others and (i0, j0) gain it
        a, b = i0, m + j0
        up_a, up_b = [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(a)
                a = parent[a]
            else:
                up_b.append(b)
                b = parent[b]
        edges = [(d, parent[d] - m) if d < m else (parent[d], d - m) for d in up_a + up_b]
        minus = edges[0 : len(up_a) : 2] + edges[len(up_a) :: 2]
        plus = [(i0, j0)] + edges[1 : len(up_a) : 2] + edges[len(up_a) + 1 :: 2]
        theta = min(x[i][j] for i, j in minus)
        degenerate = theta == 0.0
        li, lj = min((i, j) for i, j in minus if x[i][j] == theta)
        for i, j in plus:
            x[i][j] += theta
        for i, j in minus:
            x[i][j] -= theta
        x[li][lj] = 0.0
        nonbasic[i0, j0] = False
        nonbasic[li, lj] = True
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[i0].append(m + j0)
        adj[m + j0].append(i0)
        # the leaving edge cuts off the subtree holding the end on its side
        if edges.index((li, lj)) < len(up_a):
            _hang(adj, c, parent, depth, pot, err, low, m, m + j0, i0)
        else:
            _hang(adj, c, parent, depth, pot, err, low, m, i0, m + j0)
    else:
        raise PivotCapReached(cap)
    x = np.array(x)
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
    u, v, comp = _walk(np.argwhere(plan.x > _SUPPORT_TOL).tolist(), cost, m, n)
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
