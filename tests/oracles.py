"""Independent oracles used by the tests.

These deliberately avoid the algorithms they check: the transport oracle
enumerates every basis tree of the bipartite graph, the isotonic oracle does
a lattice search, and gradients are checked by central differences.
"""

import itertools
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
    off ties, and at a tie ``2c`` for p = 2 and nothing for p < 2.  Also
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


# --- random inputs -----------------------------------------------------------


def random_measure(rng, max_atoms=3, max_pieces=2):
    """Random mixture of atoms and uniform segments with unit total mass."""
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
        width = float(rng.uniform(0.1, 2.0))
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
