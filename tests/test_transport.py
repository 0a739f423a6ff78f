"""Quantile distances against the discrete primal/dual problems."""

import numpy as np
import pytest

from wgflow import measures, transport
from wgflow import (
    DiscreteInstance,
    DomainError,
    Measure1D,
    PivotCapReached,
    QuantileGrid,
    solve_dual,
    solve_primal,
    to_quantile_grid,
    w2_exact_discrete,
    w2_quantile,
)
from oracles import (
    exhaustive_transport_minimum,
    linprog_transport_minimum,
    random_instance,
    random_measure,
    rational_w2_squared,
    reference_simplex,
)


def test_w2_quantile_diracs():
    g1 = QuantileGrid(np.full(8, 1.25))
    g2 = QuantileGrid(np.full(8, -0.75))
    assert w2_quantile(g1, g2) == pytest.approx(2.0, abs=1e-15)


def test_w2_quantile_identity_and_mismatch():
    g = to_quantile_grid(Measure1D.uniform(-1, 1), 16)
    assert w2_quantile(g, g) == 0.0
    with pytest.raises(DomainError):
        w2_quantile(g, QuantileGrid([0.0]))


def test_w2_quantile_dirac_vs_uniform():
    g1 = to_quantile_grid(Measure1D.dirac(0.0), 200)
    g2 = to_quantile_grid(Measure1D.uniform(-1, 1), 200)
    assert w2_quantile(g1, g2) == pytest.approx(1 / np.sqrt(3), abs=1e-3)


def test_row_w2sq_on_rows_equals_row_by_row_bits():
    # the whole array in one pass, more than 4,096 values in some cases
    rng = np.random.default_rng(20261020)
    sizes = []
    for _ in range(60):
        a, b = rng.normal(size=(2, int(rng.integers(1, 61)), int(rng.integers(1, 301))))
        sizes.append(a.size)
        got = measures._row_w2sq(a, b)
        assert np.array_equal(got, [measures._row_w2sq(x[None], y)[0] for x, y in zip(a, b)])
        assert np.array_equal(measures._row_w2sq(a, b[0]), [measures._row_w2sq(x[None], b[0])[0] for x in a])
    assert max(sizes) > 4096


def test_w2_exact_examples():
    assert w2_exact_discrete(Measure1D.dirac(0.0), Measure1D.dirac(1.0)) == 1.0
    for t in (0.5, 1.0, 2.0):
        assert w2_exact_discrete(
            Measure1D.dirac(0.0), Measure1D.uniform(-t, t)
        ) == pytest.approx(t / np.sqrt(3), abs=1e-14)
    pair = Measure1D(atoms=((0.0, 0.5), (1.0, 0.5)))
    assert w2_exact_discrete(pair, pair) == 0.0


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(60):
        a, b, c = (random_measure(rng) for _ in range(3))
        dab = w2_exact_discrete(a, b)
        dba = w2_exact_discrete(b, a)
        assert dab == dba
        assert w2_exact_discrete(a, c) <= dab + w2_exact_discrete(b, c) + 1e-12


def test_w2_exact_matches_rational_oracle():
    """Pieces up to 1e3 wide, every other pair a translate by 1e-3 to 1e-1,
    so the quantile difference is small against the quantile values and
    forming it from values far from the pieces (such as intercepts at s = 0)
    shows as a relative error far above 1e-8; about 1e-10 remains from
    rounding the values themselves."""
    rng = np.random.default_rng(2026)
    for k in range(400):
        m1 = random_measure(rng, max_width=1e3)
        if k % 2:
            shift = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, -1.0))
            m2 = Measure1D(
                atoms=tuple((x + shift, w) for x, w in m1.atoms),
                pieces=tuple((l + shift, r + shift, w) for l, r, w in m1.pieces),
            )
        else:
            m2 = random_measure(rng, max_width=1e3)
        exact = float(rational_w2_squared(m1, m2)) ** 0.5
        assert w2_exact_discrete(m1, m2) == pytest.approx(exact, rel=1e-8, abs=0.0)


def test_grid_distance_converges_to_exact():
    m1 = Measure1D(atoms=((-0.3, 0.4),), pieces=((0.1, 1.4, 0.6),))
    m2 = Measure1D.uniform(-1.0, 0.5)
    exact = w2_exact_discrete(m1, m2)
    errs = [
        abs(w2_quantile(to_quantile_grid(m1, n), to_quantile_grid(m2, n)) - exact)
        for n in (50, 100, 200, 400)
    ]
    assert errs[2] <= errs[0] / 1.5
    assert errs[3] <= errs[1] / 1.5


def test_solve_primal_identity():
    inst = DiscreteInstance.from_weighted_points(
        [(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)]
    )
    plan = solve_primal(inst)
    assert plan.objective == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan.x, np.diag([0.5, 0.5]))


def test_solve_primal_crossed_cost():
    inst = DiscreteInstance.from_weighted_points(
        [(0.0, 0.5), (1.0, 0.5)],
        [(0.0, 0.5), (1.0, 0.5)],
        cost=[[1.0, 0.0], [0.0, 1.0]],
    )
    plan = solve_primal(inst)
    assert plan.objective == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan.x, [[0.0, 0.5], [0.5, 0.0]])


def test_solve_primal_matches_exhaustive_oracle():
    rng = np.random.default_rng(19)
    for _ in range(60):
        inst = random_instance(rng, max_size=4, dim=2)
        plan = solve_primal(inst)
        oracle = exhaustive_transport_minimum(
            inst.source_masses, inst.sink_masses, inst.cost
        )
        assert plan.objective == pytest.approx(oracle, abs=1e-12)


def test_simplex_on_degenerate_tied_instances():
    # masses on a coarse dyadic lattice and heavily tied costs force
    # degenerate pivots; the pivot rules must still end at the optimum
    rng = np.random.default_rng(23571)
    for _ in range(120):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = rng.integers(1, 5, size=m).astype(float)
        q = rng.integers(1, 5, size=n).astype(float)
        total = max(p.sum(), q.sum())
        p[0] += total - p.sum()
        q[0] += total - q.sum()
        p /= total
        q /= total
        cost = rng.integers(0, 3, size=(m, n)).astype(float)
        inst = DiscreteInstance(
            np.zeros((m, 1)), p, np.zeros((n, 1)), q, cost
        )
        plan = solve_primal(inst)
        oracle = exhaustive_transport_minimum(p, q, cost)
        assert plan.objective == pytest.approx(oracle, abs=1e-12)
        dual = solve_dual(inst, plan)
        assert abs(dual.objective - plan.objective) <= 1e-7


def test_simplex_leaving_rule_picks_least_index():
    # a tied ratio test: two optimal vertices, and the least-index leaving
    # cell reaches this one (a largest-index rule reaches the other)
    p = np.array([3.0, 2.0, 3.0, 1.0, 3.0]) / 12.0
    q = np.array([0.5, 0.5])
    cost = np.array([[0, 1], [0, 0], [0, 1], [0, 2], [0, 1]], dtype=float)
    plan = solve_primal(DiscreteInstance(np.zeros((5, 1)), p, np.zeros((2, 1)), q, cost))
    assert np.allclose(plan.x * 12.0, [[3, 0], [0, 2], [2, 1], [1, 0], [0, 3]], atol=1e-12)


def test_solve_dual_certifies():
    rng = np.random.default_rng(29)
    for _ in range(60):
        inst = random_instance(rng, max_size=4)
        plan = solve_primal(inst)
        dual = solve_dual(inst, plan)
        assert abs(dual.objective - plan.objective) <= 1e-7
        slack = inst.cost - dual.u[:, None] - dual.v[None, :]
        assert slack.min() >= -1e-9


def test_solve_dual_identity():
    inst = DiscreteInstance.from_weighted_points(
        [(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)]
    )
    dual = solve_dual(inst, solve_primal(inst))
    assert dual.objective == pytest.approx(0.0, abs=1e-12)


def test_solve_dual_two_diracs():
    inst = DiscreteInstance.from_weighted_points([(0.0, 1.0)], [(1.0, 1.0)])
    plan = solve_primal(inst)
    dual = solve_dual(inst, plan)
    assert plan.objective == pytest.approx(1.0, abs=1e-15)
    assert dual.objective == pytest.approx(1.0, abs=1e-12)


def test_solve_dual_rejects_nonoptimal_plan():
    from wgflow.transport import TransportPlan

    inst = DiscreteInstance.from_weighted_points(
        [(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)]
    )
    bad = TransportPlan(
        np.array([[0.0, 0.5], [0.5, 0.0]]), float(2 * 0.5 * inst.cost[0, 1])
    )
    with pytest.raises(DomainError):
        solve_dual(inst, bad)


def test_weak_duality_feasible_pairs():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng, max_size=4)
        # a feasible but arbitrary primal: the independent coupling
        x = np.outer(inst.source_masses, inst.sink_masses)
        primal_value = float(np.sum(x * inst.cost))
        # a feasible dual from arbitrary u
        u = rng.normal(size=inst.cost.shape[0])
        v = np.min(inst.cost - u[:, None], axis=0)
        dual_value = float(inst.source_masses @ u + inst.sink_masses @ v)
        assert dual_value <= primal_value + 1e-12


def test_primal_matches_quantile_distance_in_1d():
    rng = np.random.default_rng(37)
    for _ in range(60):
        inst = random_instance(rng, max_size=4, dim=1)
        plan = solve_primal(inst)
        m1 = Measure1D.from_atoms(
            tuple(zip(inst.source_points[:, 0], inst.source_masses))
        )
        m2 = Measure1D.from_atoms(tuple(zip(inst.sink_points[:, 0], inst.sink_masses)))
        assert np.sqrt(plan.objective) == pytest.approx(
            w2_exact_discrete(m1, m2), abs=1e-9
        )


def test_unbalanced_instance_rejected():
    with pytest.raises(DomainError):
        DiscreteInstance.from_weighted_points(
            [(0.0, 0.6), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)]
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, sources, sinks, cost",
    [
        ("source_masses", [(0.0, NAN), (1.0, 1.0)], [(0.0, 1.0)], None),
        ("sink_masses", [(0.0, 1.0)], [(0.0, 0.5), (1.0, NAN)], None),
        ("source_points", [(NAN, 1.0)], [(0.0, 1.0)], None),
        ("sink_points", [(0.0, 1.0)], [((0.0, INF), 1.0)], [[0.0]]),
        ("cost", [(0.0, 0.5), (1.0, 0.5)], [(0.0, 1.0)], [[NAN], [1.0]]),
        ("cost", [(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)], [[INF, 1.0], [1.0, 1.0]]),
        ("source_points have dimension 1, sink_points 2", [(1.0, 1.0)], [((0.0, 5.0), 1.0)], None),
        ("source_points have dimension 3, sink_points 2", [((1.0, 2.0, 3.0), 1.0)], [((0.0, 5.0), 1.0)], None),
    ],
)
def test_instance_refuses_non_finite_and_mixed_dimensions(field, sources, sinks, cost):
    with pytest.raises(DomainError, match=field):
        DiscreteInstance.from_weighted_points(sources, sinks, cost)


def test_degenerate_supports_still_certify():
    # equal masses at equal points force degenerate pivots and a
    # disconnected optimal support
    inst = DiscreteInstance.from_weighted_points(
        [(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)],
        [(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)],
    )
    plan = solve_primal(inst)
    assert plan.objective == pytest.approx(0.0, abs=1e-15)
    dual = solve_dual(inst, plan)
    assert abs(dual.objective) <= 1e-9


def _uniform_instance(cost):
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    return DiscreteInstance(
        np.zeros((m, 1)), np.full(m, 1.0 / m), np.zeros((n, 1)), np.full(n, 1.0 / n), cost
    )


@pytest.mark.parametrize(
    "cost, x",
    [
        (np.zeros((2, 2)), np.full((2, 2), 0.25)),
        (
            [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [[1 / 3, 0.0, 0.0], [0.0, 1 / 6, 1 / 6], [0.0, 1 / 6, 1 / 6]],
        ),
    ],
)
def test_solve_dual_certifies_cyclic_support(cost, x):
    # optimal plans whose support graph holds a cycle, not a forest
    from wgflow.transport import TransportPlan

    inst = _uniform_instance(cost)
    plan = TransportPlan(x, float(np.sum(inst.cost * np.asarray(x))))
    dual = solve_dual(inst, plan)
    assert np.all(dual.u == 0.0) and np.all(dual.v == 0.0)
    assert dual.objective == plan.objective == 0.0


def test_solve_dual_refuses_nonoptimal_cyclic_support():
    from wgflow.transport import TransportPlan

    inst = _uniform_instance([[0.0, 1.0], [1.0, 0.0]])
    plan = TransportPlan(np.full((2, 2), 0.25), 0.5)
    with pytest.raises(DomainError, match="duality gap"):
        solve_dual(inst, plan)


def test_simplex_and_certificate_pinned_bits():
    # objective bits taken from the simplex before its walks were merged into
    # one; the plan's digest from the first with priced entering cells
    import hashlib

    rng = np.random.default_rng(4040)
    p = 0.5 + rng.random(40)
    q = 0.5 + rng.random(40)
    p /= p.sum()
    q /= q.sum()
    inst = DiscreteInstance.from_weighted_points(
        list(zip(rng.random((40, 2)), p)), list(zip(rng.random((40, 2)), q))
    )
    plan = solve_primal(inst)
    dual = solve_dual(inst, plan)
    assert plan.objective.hex() == "0x1.cdbd5a58bc47ap-6"
    assert dual.objective.hex() == "0x1.cdbd5a58bc480p-6"
    assert hashlib.sha256(plan.x.tobytes()).hexdigest() == (
        "43c725525b141e7474c36887bd0b7dfc8948004c37fd1f819c29a8d5e15cbef1"
    )
    optimum = linprog_transport_minimum(inst.source_masses, inst.sink_masses, inst.cost)
    assert plan.objective == pytest.approx(optimum, rel=1e-12, abs=0.0)


def _dyadic_instance(rng, cost):
    # masses on a dyadic lattice sum to 1 exactly
    masses = []
    for k in cost.shape:
        w = rng.integers(1, 5, size=k).astype(float)
        total = 2.0 ** np.ceil(np.log2(w.sum()))
        w[0] += total - w.sum()
        masses.append(w / total)
    m, n = cost.shape
    return DiscreteInstance(np.zeros((m, 1)), masses[0], np.zeros((n, 1)), masses[1], cost)


def _outcome(solve, inst):
    try:
        plan = solve(inst)
    except RuntimeError as exc:
        return str(exc)
    return plan.x.tobytes(), plan.objective


def test_simplex_matches_reference_bits():
    # the kept basis tree must reproduce the per-pivot walk to the last bit
    rng = np.random.default_rng(1010)
    instances = []
    for k in range(40):  # one row or one column
        size = int(rng.integers(1, 9))
        instances.append(_dyadic_instance(rng, rng.random((1, size) if k % 2 else (size, 1))))
    for k in range(160):  # tied integer costs force degenerate pivots
        cost = rng.integers(0, 3, size=rng.integers(2, 7, size=2)).astype(float)
        instances.append(_dyadic_instance(rng, cost * (1e6 if k % 3 == 0 else 1.0)))
    near_tied = []
    for _ in range(100):
        # near-ties at 1e6 leave rounding in the potentials: entering cells
        # then depend on their last bits, and under a threshold blind to
        # that rounding some of these instances ran into the iteration cap
        shape = rng.integers(2, 6, size=2)
        cost = rng.integers(0, 4, size=shape) * 1e6 + rng.integers(0, 3, size=shape) * 0.1
        near_tied.append(_dyadic_instance(rng, cost))
    instances += near_tied
    instances += [_forbidden_cells_instance(rng) for _ in range(60)]
    instances += [random_instance(rng, max_size=12, dim=2) for _ in range(100)]
    for _ in range(3):
        p = 0.5 + rng.random(40)
        q = 0.5 + rng.random(40)
        instances.append(DiscreteInstance.from_weighted_points(
            list(zip(rng.random((40, 2)), p / p.sum())), list(zip(rng.random((40, 2)), q / q.sum()))
        ))
    for inst in instances:
        assert _outcome(solve_primal, inst) == _outcome(reference_simplex, inst)
    for inst in near_tied:
        optimum = linprog_transport_minimum(inst.source_masses, inst.sink_masses, inst.cost)
        assert solve_primal(inst).objective == pytest.approx(optimum, rel=1e-12, abs=0.0)


def _forbidden_cells_instance(rng):
    # costs at scales from 1e-4 to 1 beside "forbidden" cells of cost 1e10,
    # which a plan on the support of a north-west corner over shuffled
    # columns avoids; the simplex starts from the unshuffled corner, whose
    # tree may pass through forbidden cells and carry potentials near 1e10
    m, n = (int(k) for k in rng.integers(2, 5, size=2))
    cost = rng.random((m, n)) * 10.0 ** rng.integers(-4, 1, size=(m, n))
    inst = _dyadic_instance(rng, cost)
    perm = rng.permutation(n)
    _, cells = transport._northwest_corner(inst.source_masses, inst.sink_masses[perm])
    allowed = np.zeros((m, n), dtype=bool)
    for i, j in cells:
        allowed[i, perm[j]] = True
    cost[~allowed & (rng.random((m, n)) < 0.7)] = 1e10
    return DiscreteInstance(np.zeros((m, 1)), inst.source_masses, np.zeros((n, 1)), inst.sink_masses, cost)


def test_simplex_with_forbidden_cells():
    # a reduced cost carries the rounding of its own potentials only: a
    # threshold scaled to the largest cost let (0, 1) stay out of this basis
    # at a reduced cost of -2e-3, for an objective of 8e-4 against 0
    cost = np.array([[1e-3, 0.0, 1e10], [0.0, 1e-3, 1e10], [1e10, 1e10, 0.0]])
    p = np.array([0.4, 0.4, 0.2])
    cases = [DiscreteInstance(np.zeros((3, 1)), p, np.zeros((3, 1)), p, cost)]
    rng = np.random.default_rng(6061)
    cases += [_forbidden_cells_instance(rng) for _ in range(150)]
    for inst in cases:
        plan = solve_primal(inst)
        optimum = exhaustive_transport_minimum(inst.source_masses, inst.sink_masses, inst.cost)
        assert plan.objective == pytest.approx(optimum, rel=1e-12, abs=1e-15)
        dual = solve_dual(inst, plan)
        assert abs(dual.objective - plan.objective) <= 1e-7


def test_simplex_cap_is_a_named_failure(monkeypatch):
    # near-ties at 1e6 leave about 1e-10 of rounding in the potentials; a
    # threshold of -1e-12 blind to that rounding kept this 11x12 instance
    # pivoting until the cap, and the one that allows for it solves it
    rng = np.random.default_rng(1)
    m, n = (int(k) for k in rng.integers(8, 16, size=2))
    cost = rng.integers(0, 4, (m, n)) * 1e6 + rng.integers(0, 3, (m, n)) * 0.1
    inst = DiscreteInstance(np.zeros((m, 1)), np.full(m, 1.0 / m), np.zeros((n, 1)), np.full(n, 1.0 / n), cost)
    assert (m, n) == (11, 12)
    plan = solve_primal(inst)
    dual = solve_dual(inst, plan)
    assert abs(dual.objective - plan.objective) <= 1e-7
    optimum = linprog_transport_minimum(inst.source_masses, inst.sink_masses, cost)
    assert plan.objective == pytest.approx(optimum, rel=1e-12, abs=0.0)
    # a cap it cannot meet names the failure and the pivots made
    monkeypatch.setattr(transport, "_pivot_cap", lambda m, n: 3)
    with pytest.raises(PivotCapReached, match="^transportation simplex did not terminate$") as caught:
        solve_primal(inst)
    assert caught.value.pivots == 3
