"""Independent oracles used by the tests.

These deliberately avoid the algorithms they check: the transport oracles
enumerate every basis tree of the bipartite graph or call HiGHS, the
isotonic oracle does a lattice search, exact distances are integrated in
rational arithmetic from the CDF, and gradients are checked by central
differences.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np


# --- exhaustive transportation optimum ------------------------------------


def _is_spanning_tree(edges, m, n):
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ra, rb = find(i), find(m + j)
        if ra == rb:
            return False
        parent[ra] = rb
    root = find(0)
    return all(find(k) == root for k in range(m + n))


@lru_cache(maxsize=None)
def _tree_solvers(m, n):
    """All spanning trees of K_{m,n} with their cut-sign matrices.

    For each tree the flow on an edge equals the net supply of the component
    on its source side once the edge is removed, a +-1 combination of the
    masses; the matrices turn allocation into a single einsum per instance.
    """
    cells = [(i, j) for i in range(m) for j in range(n)]
    need = m + n - 1
    edge_idx = []
    sign_mats = []
    for combo in itertools.combinations(range(len(cells)), need):
        chosen = [cells[e] for e in combo]
        if not _is_spanning_tree(chosen, m, n):
            continue
        A = np.zeros((need, m + n))
        for row, (i0, j0) in enumerate(chosen):
            # component containing the source side of (i0, j0) after removal
            seen = {("r", i0)}
            stack = [("r", i0)]
            while stack:
                kind, k = stack.pop()
                for i, j in chosen:
                    if (i, j) == (i0, j0):
                        continue
                    if kind == "r" and i == k and ("c", j) not in seen:
                        seen.add(("c", j))
                        stack.append(("c", j))
                    if kind == "c" and j == k and ("r", i) not in seen:
                        seen.add(("r", i))
                        stack.append(("r", i))
            for kind, k in seen:
                A[row, k if kind == "r" else m + k] = 1.0 if kind == "r" else -1.0
        edge_idx.append(combo)
        sign_mats.append(A)
    flat = np.array(edge_idx)  # (T, need)
    mats = np.stack(sign_mats)  # (T, need, m+n)
    return flat, mats


def exhaustive_transport_minimum(p, q, cost):
    """Minimum transport cost by checking every vertex of the polytope."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    flat, mats = _tree_solvers(m, n)
    masses = np.concatenate([p, q])
    allocations = mats @ masses  # (T, need)
    feasible = np.all(allocations >= -1e-10, axis=1)
    edge_costs = cost.reshape(-1)[flat]  # (T, need)
    objectives = np.sum(np.clip(allocations, 0.0, None) * edge_costs, axis=1)
    if not feasible.any():
        raise RuntimeError("no feasible vertex found")
    return float(objectives[feasible].min())


def linprog_transport_minimum(p, q, cost):
    """Minimum transport cost from HiGHS through ``scipy.optimize.linprog``."""
    import pytest

    linprog = pytest.importorskip("scipy.optimize").linprog
    from scipy import sparse

    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([p, q]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"linprog did not solve the instance: {res.message}")
    return float(res.fun)


# --- brute-force isotonic regression ---------------------------------------


def lattice_isotonic(y, lo, hi, steps=161):
    """Smallest-distance nondecreasing triple on a lattice (3 entries only)."""
    assert len(y) == 3
    grid = np.linspace(lo, hi, steps)
    best = None
    best_val = np.inf
    for a in grid:
        for b in grid[grid >= a]:
            c = grid[grid >= b]
            vals = (a - y[0]) ** 2 + (b - y[1]) ** 2 + (c - y[2]) ** 2
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best = (float(a), float(b), float(c[k]))
    return np.array(best)


def isotonic_kkt_defect(sol, t):
    """Largest violation of the optimality conditions of the exact isotonic
    projection ``analytic._structure(sol, t)`` of the transported pieces
    ``Y = analytic._transported_pieces(sol, t)``: the output tiles the same
    levels and is nondecreasing, its rising pieces equal ``Y``, each pool's
    value ``v`` is the mean of ``Y`` over the pool ``[alpha, beta]``, and
    ``int_alpha^s (Y - v) >= 0`` at every knot of ``Y`` inside the pool and
    wherever a rising piece of ``Y`` crosses ``v`` there (the only places
    the partial integral can have a minimum)."""
    from wgflow.analytic import _structure, _transported_pieces

    ys = _transported_pieces(sol, t)
    out = _structure(sol, t)

    def y_integral(lo, hi, v):
        """Integral of Y - v over [lo, hi]."""
        total = 0.0
        for s0, s1, x0, b in ys:
            a, c = max(lo, s0), min(hi, s1)
            if a < c:
                total += (c - a) * (x0 + 0.5 * b * ((a - s0) + (c - s0)) - v)
        return total

    def end(el):
        return el[2] + el[3] * (el[1] - el[0])

    defect = max(abs(out[0][0] - ys[0][0]), abs(out[-1][1] - ys[-1][1]))
    for el, nxt in zip(out, out[1:]):
        defect = max(defect, abs(el[1] - nxt[0]), end(el) - nxt[2])
    for el in out:
        s0, s1, x0, b = el
        defect = max(defect, -b * (s1 - s0))
        if b > 0.0:
            for y0, y1, yx, yb in ys:
                lo, hi = max(s0, y0), min(s1, y1)
                for s in (lo, hi) if lo < hi else ():
                    defect = max(defect, abs(x0 + b * (s - s0) - (yx + yb * (s - y0))))
            continue
        defect = max(defect, abs(y_integral(s0, s1, x0)) / (s1 - s0))
        levels = [y for y0, y1, _, _ in ys for y in (y0, y1)]
        levels += [y0 + (x0 - yx) / yb for y0, _, yx, yb in ys if yb > 0.0]
        for s in levels:
            if s0 < s < s1:
                defect = max(defect, -y_integral(s0, s, x0))
    return defect


# --- finite differences -----------------------------------------------------


def central_difference(f, x, h):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# --- sampled midpoint convexity ---------------------------------------------


def midpoint_convexity_violated(W, cert, samples=129):
    """Whether ``W(x) + (lambda_second/2) x^2 + lambda_prime |x|`` breaks
    midpoint convexity beyond rounding on ``samples`` equispaced points of
    ``[-cert.radius, cert.radius]``, over spans of 2 to 32 steps."""
    from wgflow.potential import Potential, evaluate

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
        mid = f[step // 2 : samples - step // 2]
        if np.any(2.0 * mid > f[:-step] + f[step:] + 1e-9 * scale):
            return True
    return False


# --- dense pairwise sums ----------------------------------------------------


def dense_pair_sums(eta, beta, terms, x, m):
    """Pair energy, cone force and tie-excluding force of
    ``W = eta|d| + beta d^2/2 + sum c|d|^p`` from full n x n difference
    arrays, with W and W' written out term by term.  The cone force takes
    the cusp sign from the index order, the other from the sign of d."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    d = x[:, None] - x[None, :]
    ad = np.abs(d)
    w = eta * ad + 0.5 * beta * d * d
    dw_smooth = beta * d
    for c, p in terms:
        w = w + c * ad**p
        dw_smooth = dw_smooth + c * p * ad ** (p - 1.0) * np.sign(d)
    idx = np.arange(x.size)
    cone = (dw_smooth + eta * np.sign(idx[:, None] - idx[None, :])) @ m
    excl = (dw_smooth + eta * np.sign(d)) @ m
    return float(0.5 * m @ w @ m), cone, excl


def dense_pair_hessian(beta, terms, x, m, v):
    """``sum_j m_j W''(x_i - x_j) (v_i - v_j)`` from full n x n arrays, with
    W'' written out term by term: ``beta`` everywhere, ``c p (p-1) |d|^(p-2)``
    off ties, and at a tie ``2c`` for p = 2 and nothing otherwise: that is
    ``W''(0)`` for p > 2, and stands in for the infinite one for p < 2.  Also
    returns the same sums over absolute summands, a scale for rounding."""
    x = np.asarray(x, dtype=float)
    d = x[:, None] - x[None, :]
    tied = d == 0.0
    h = np.full(d.shape, float(beta))
    for c, p in terms:
        if p == 2.0:
            h = h + 2.0 * c
        else:
            h = h + np.where(tied, 0.0, c * p * (p - 1.0) * np.abs(np.where(tied, 1.0, d)) ** (p - 2.0))
    dv = np.asarray(v)[:, None] - np.asarray(v)[None, :]
    return (h * dv) @ m, np.abs(h * dv) @ m


def blocked_power_sums(terms, x, m, tiles):
    """Energy and force of the power terms ``sum c|d|^p`` (no p = 2 term) for
    sorted points ``x``, summed over the lower-triangle ``tiles``
    ``(lo, hi, c0, c1)`` in the kernel's order, with fresh arrays for every
    tile and term: gaps by subtraction, every tile clamped at 0, and a fresh
    ``d ** (p - 1)``.  That is the kernel's arithmetic without its shared
    workspace, its matrix-product gaps or its unclamped tiles below the
    diagonal, so the two agree bit for bit."""
    e, f = 0.0, np.zeros(x.size)
    for lo, hi, c0, c1 in tiles:
        d = np.maximum(x[lo:hi, None] - x[None, c0:c1], 0.0)
        mi, mj = m[lo:hi], m[c0:c1]
        for c, p in terms:
            q = d ** (p - 1.0)
            f[lo:hi] += (c * p) * (q @ mj)
            f[c0:c1] -= (c * p) * (mi @ q)
            e += c * float(mi @ (q * d) @ mj)
    return e, f


def blocked_power_hessian(terms, x, m, v, tiles):
    """``pair_hessian``'s power-term sums in the kernel's tile order, with
    fresh arrays for every tile and term, as ``blocked_power_sums``."""
    h = np.zeros(x.size)
    mv = np.stack((m, m * v))
    for lo, hi, c0, c1 in tiles:
        d = np.maximum(x[lo:hi, None] - x[None, c0:c1], 0.0)
        apart = d >= np.finfo(float).tiny
        for c, p in terms:
            w = d ** (p - 1.0)
            w = np.divide(w, d, out=w, where=apart)
            k = c * p * (p - 1.0)
            right = k * (w @ mv[:, c0:c1].T)
            left = k * (mv[:, lo:hi] @ w)
            h[lo:hi] += v[lo:hi] * right[:, 0] - right[:, 1]
            h[c0:c1] += v[c0:c1] * left[0] - left[1]
    return h


# --- exact quantile distances -------------------------------------------------


def rational_quantile_pieces(m):
    """Quantile pieces ``(s0, s1, x0, slope)`` of the measure's float inputs in
    exact rational arithmetic, read off the CDF: at each breakpoint ``x`` an
    atom fills the levels from the left limit ``M(x-)`` to ``M(x)``, and
    between breakpoints the CDF rises linearly to the next left limit."""
    atoms = [(Fraction(x), Fraction(w)) for x, w in m.atoms]
    segs = [(Fraction(l), Fraction(r), Fraction(w)) for l, r, w in m.pieces]

    def cdf(x, closed):
        total = sum(w for p, w in atoms if p < x or (closed and p == x))
        return total + sum(w * min(max((x - l) / (r - l), 0), 1) for l, r, w in segs)

    xs = sorted({p for p, _ in atoms} | {v for l, r, _ in segs for v in (l, r)})
    pieces = []
    for x, nxt in zip(xs, xs[1:] + [None]):
        lo, hi = cdf(x, False), cdf(x, True)
        if hi > lo:
            pieces.append((lo, hi, x, Fraction(0)))
        if nxt is not None and cdf(nxt, False) > hi:
            top = cdf(nxt, False)
            pieces.append((hi, top, x, (nxt - x) / (top - hi)))
    return pieces


def rational_w2_squared(m1, m2):
    """Exact squared W2 distance of the float inputs: the integral over
    (0, 1) of the squared difference of the rational quantiles, each held at
    its last value past the mass it covers."""
    p1, p2 = rational_quantile_pieces(m1), rational_quantile_pieces(m2)

    def at(pieces, s):
        """Value and slope of the quantile on the levels just above ``s``."""
        for s0, s1, x0, b in pieces:
            if s < s1:
                return x0 + b * (s - s0), b
        s0, s1, x0, b = pieces[-1]
        return x0 + b * (s1 - s0), Fraction(0)

    levels = {Fraction(0), Fraction(1)} | {s for p in p1 + p2 for s in p[:2]}
    levels = sorted(s for s in levels if s <= 1)
    total = Fraction(0)
    for u, v in zip(levels, levels[1:]):
        (x1, b1), (x2, b2) = at(p1, u), at(p2, u)
        d, b, h = x1 - x2, b1 - b2, v - u
        total += h * (d * d + d * b * h + b * b * h * h / 3)
    return total


# --- isotonic projection by whole-stack rescans -----------------------------


def reference_isotonic_pieces(pieces):
    """The exact isotonic projection as a rescan loop: after each pushed
    piece, and after each repair, every junction of the stack is checked and
    the rightmost violating one is repaired with ``analytic._pool`` or
    ``analytic._fit``, under a cap of 10,000 repairs per push."""
    from wgflow.analytic import _fit, _piece_mean, _pool, _violates

    stack = []
    for s0, s1, x0, b in pieces:
        if b >= 0.0:
            stack.append([s0, s1, x0, b])
        else:
            stack.append([s0, s1, _piece_mean(s0, s1, x0, b), 0.0])
        for _ in range(10000):
            bad = None
            for k in range(len(stack) - 1):
                if _violates(stack[k], stack[k + 1]):
                    bad = k
            if bad is None:
                break
            left, right = stack[bad], stack[bad + 1]
            if left[3] == 0.0 and right[3] == 0.0:
                _pool(stack, bad)
            elif left[3] == 0.0 or right[3] == 0.0:
                _fit(stack, bad if left[3] == 0.0 else bad + 1)
            else:
                raise AssertionError("rising pieces cannot violate each other")
        else:
            raise RuntimeError("isotonic repair did not terminate")
    return stack


# --- random inputs -----------------------------------------------------------


def random_measure(rng, max_atoms=3, max_pieces=2, max_width=2.0):
    """Random mixture of atoms and uniform segments with unit total mass,
    segments between 0.1 and ``max_width`` wide."""
    from wgflow import Measure1D

    n_atoms = rng.integers(0, max_atoms + 1)
    n_pieces = rng.integers(0 if n_atoms else 1, max_pieces + 1)
    weights = rng.random(n_atoms + n_pieces) + 0.05
    weights /= weights.sum()
    atoms = []
    for k in range(n_atoms):
        atoms.append((float(rng.uniform(-3, 3)), float(weights[k])))
    pieces = []
    for k in range(n_pieces):
        left = float(rng.uniform(-3, 3))
        width = float(rng.uniform(0.1, max_width))
        pieces.append((left, left + width, float(weights[n_atoms + k])))
    return Measure1D(atoms=tuple(atoms), pieces=tuple(pieces))


def random_instance(rng, max_size=4, dim=1):
    """Random balanced transport instance with squared-distance cost."""
    from wgflow import DiscreteInstance

    m = int(rng.integers(2, max_size + 1))
    n = int(rng.integers(2, max_size + 1))
    p = rng.random(m) + 0.1
    p /= p.sum()
    q = rng.random(n) + 0.1
    q /= q.sum()
    sp = rng.uniform(-2, 2, size=(m, dim))
    tp = rng.uniform(-2, 2, size=(n, dim))
    return DiscreteInstance.from_weighted_points(
        [(sp[i], p[i]) for i in range(m)], [(tp[j], q[j]) for j in range(n)]
    )


# --- reference transportation simplex ----------------------------------------
#
# The simplex with the entering and leaving rules of ``solve_primal`` but
# without its kept basis tree: each pivot walks the whole basis tree again for
# its potentials and parents, and reads the entering cell's cycle off those
# parents.


def _northwest_corner(p, q):
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
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0.0] * (m + n)
    err = [0.0] * (m + n)
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
                    err[b] = err[a] + 2.0**-51 * abs(pot[b])
                    stack.append(b)
        ncomp += 1
    pot = np.array(pot)
    return pot - np.array(err), np.array(comp), parent


def _cycle(parent, enter, m):
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


def reference_simplex(inst):
    """Transportation simplex walking the basis per pivot: the most negative
    reduced cost enters, or the least-index candidate right after a
    degenerate pivot.  A cell is a candidate below ``-1e-12`` less the
    rounding its potentials carry along their tree paths."""
    from wgflow.transport import TransportPlan

    p = inst.source_masses
    q = inst.sink_masses
    cost = inst.cost
    m, n = cost.shape
    x, basis = _northwest_corner(p, q)
    degenerate = False
    for _ in range(200 * m * n + 200):
        low, comp, parent = _walk(basis, cost, m, n)
        if np.any(comp != 0):
            raise RuntimeError("basis graph is not a spanning tree")
        # reduced costs raised by the rounding they may carry
        reduced = cost + (1e-12 + 2.0**-51 * np.abs(cost)) - low[:m, None] - low[None, m:]
        for i, j in basis:
            reduced[i, j] = 0.0
        candidates = np.flatnonzero(reduced < 0.0)
        if candidates.size == 0:
            break
        if degenerate:
            enter = divmod(int(candidates[0]), n)
        else:
            enter = divmod(int(np.argmin(reduced)), n)
        cycle = _cycle(parent, enter, m)
        minus = cycle[1::2]
        theta = min(x[c] for c in minus)
        degenerate = theta == 0.0
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


# --- forward Euler particle loop --------------------------------------------


def reference_integrate(W, st0, t_end, dt):
    """The particle integrator as one forward Euler loop: one ``ode_rhs`` and
    one validated state per substep, each substep ending early at the first
    crossing of two neighbours."""
    from wgflow.measures import DomainError
    from wgflow.particles import _EVENT_TOL, ParticleState, ode_rhs

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


# --- the run CSVs, one value at a time ---------------------------------------


def per_value_grid_csv(path, times, grids, nodes):
    """The ``t,i,s_i,X_i`` trajectory CSV with each value formatted on its
    own (``"{:.17g}".format``) and each line joined by concatenation."""
    fmt = "{:.17g}".format
    columns = [f",{i},{fmt(s)}," for i, s in enumerate(np.asarray(nodes, dtype=float).tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,i,s_i,X_i\n")
        for t, row in zip(np.asarray(times, dtype=float).tolist(), np.asarray(grids, dtype=float).tolist()):
            ts = fmt(t)
            fh.writelines(ts + c + fmt(x) + "\n" for c, x in zip(columns, row))


def per_value_particle_csv(path, times, segments):
    """The ``t,i,x_i,m_i`` particle trajectory CSV of ``segments`` of
    ``(masses, positions)``, one row of ``positions`` per record at
    ``times``, with each value formatted on its own and each line joined by
    concatenation."""
    fmt = "{:.17g}".format
    stamps = iter(np.asarray(times, dtype=float).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,i,x_i,m_i\n")
        for masses, positions in segments:
            tails = [f",{fmt(m)}\n" for m in np.asarray(masses, dtype=float).tolist()]
            for row in np.asarray(positions, dtype=float).tolist():
                ts = fmt(next(stamps))
                fh.writelines(ts + f",{i}," + fmt(x) + m for i, (x, m) in enumerate(zip(row, tails)))


def per_value_summary_csv(path, times, energies, speeds, step_costs):
    """The ``t,energy,metric_derivative,step_cost`` summary CSV, each value
    formatted on its own; the first record has no step behind it, so its
    speed and cost are empty."""
    fmt = "{:.17g}".format
    times, energies, speeds, step_costs = (
        np.asarray(a, dtype=float).tolist() for a in (times, energies, speeds, step_costs)
    )
    steps = [","] + [fmt(v) + "," + fmt(c) for v, c in zip(speeds, step_costs)]
    with open(path, "w", newline="") as fh:
        fh.write("t,energy,metric_derivative,step_cost\n")
        for t, e, step in zip(times, energies, steps):
            fh.write(fmt(t) + "," + fmt(e) + "," + step + "\n")
