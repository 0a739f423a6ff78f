"""Implicit stepping: projection, single steps, full flows, and identities."""

import gc
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgflow import (
    ConvergenceFailure,
    DomainError,
    FlowTrajectory,
    JkoConfig,
    Measure1D,
    Potential,
    QuantileGrid,
    convexity_certificate,
    default_bump_library,
    energy_identity_residual,
    energy_subgradient,
    evi_residual,
    interaction_energy,
    isotonic_project,
    jko_step,
    metric_derivative_estimate,
    run_flow,
    to_quantile_grid,
    w2_exact_discrete,
    w2_quantile,
    from_quantile_grid,
    weak_residual,
)
from oracles import lattice_isotonic
from wgflow.measures import _row_w2sq
from wgflow.potential import curvature_bound, evaluate, pair_energy, pair_energy_force

REPULSIVE = Potential(eta=-1.0)
ATTRACTIVE = Potential(eta=1.0)
QUADRATIC = Potential(beta=1.0)
# the cusp with a power term: its steps take the inner solver
POWER = Potential(eta=-1.0, terms=((1.0, 1.5),))


def _nodes(n):
    return (np.arange(n) + 0.5) / n


def test_isotonic_identity_on_monotone():
    g = isotonic_project([1.0, 2.0, 3.0])
    assert np.array_equal(g.values, [1.0, 2.0, 3.0])


def test_isotonic_matches_lattice_oracle():
    for y in ([2.0, 1.0, 3.0], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0]):
        ours = isotonic_project(y).values
        oracle = lattice_isotonic(y, 0.0, 4.0, steps=161)
        assert np.allclose(ours, oracle, atol=0.03)
    assert np.allclose(isotonic_project([2.0, 1.0, 3.0]).values, [1.5, 1.5, 3.0])
    assert np.allclose(isotonic_project([3.0, 2.0, 1.0]).values, [2.0, 2.0, 2.0])


def test_isotonic_idempotent_and_mean_preserving():
    rng = np.random.default_rng(71)
    for _ in range(50):
        y = rng.normal(size=int(rng.integers(1, 40)))
        once = isotonic_project(y)
        twice = isotonic_project(once.values)
        assert np.array_equal(once.values, twice.values)
        assert np.mean(once.values) == pytest.approx(np.mean(y), abs=1e-12)


def test_config_validation():
    with pytest.raises(DomainError):
        JkoConfig(tau=0.0, n=4, t_end=1.0)
    with pytest.raises(DomainError):
        JkoConfig(tau=1e-3, n=0, t_end=1.0)
    with pytest.raises(DomainError):
        JkoConfig(tau=1e-3, n=4, t_end=1.0, inner_max_iters=0)
    cfg = JkoConfig(tau=1e-3, n=4, t_end=1.0)
    assert cfg.inner_tol == pytest.approx(1e-10 * 4)


def test_step_bound_enforced():
    cfg = JkoConfig(tau=0.2, n=8, t_end=1.0)
    cert = convexity_certificate(REPULSIVE)  # lambda_minus = 1
    with pytest.raises(DomainError, match="12"):
        cfg.validate_step_bound(cert)
    with pytest.raises(DomainError):
        jko_step(REPULSIVE, QuantileGrid(np.zeros(8)), cfg)


def test_ineligible_potential_refused():
    cubic = Potential(terms=((1.0 / 3.0, 3.0),))
    cfg = JkoConfig(tau=1e-3, n=8, t_end=1.0)
    with pytest.raises(DomainError):
        jko_step(cubic, QuantileGrid(np.zeros(8)), cfg)


def test_step_from_dirac_is_exact():
    n = 64
    tau = 5e-3
    cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
    out = jko_step(REPULSIVE, QuantileGrid(np.zeros(n)), cfg)
    expected = tau * (2.0 * _nodes(n) - 1.0)
    assert np.max(np.abs(out.values - expected)) <= 1e-14


def test_step_from_dirac_brute_force_n3():
    # direct minimization of the penalized energy over the monotone cone
    tau = 0.01
    cfg = JkoConfig(tau=tau, n=3, t_end=1.0)
    out = jko_step(REPULSIVE, QuantileGrid(np.zeros(3)), cfg)

    # every nondecreasing triple of the lattice, in lexicographic order, so
    # argmin takes the first least value as a scan over a <= b <= c would
    span = np.linspace(-3 * tau, 3 * tau, 121)
    idx = np.indices((span.size,) * 3).reshape(3, -1)
    x = span[idx[:, (idx[0] <= idx[1]) & (idx[1] <= idx[2])].T]
    energy = np.sum(evaluate(REPULSIVE, x[:, :, None] - x[:, None, :]), axis=(1, 2)) / (2 * 3**2)
    best = x[np.argmin(np.sum(x * x, axis=1) / (2 * tau * 3) + energy)]
    assert np.allclose(out.values, best, atol=2 * 6 * tau / 120)


def test_step_matches_constrained_optimizer_oracle():
    # independent route: minimize the penalized energy over the monotone
    # cone with a general-purpose constrained optimizer
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2718)
    n = 8
    for W in (
        REPULSIVE,
        ATTRACTIVE,
        QUADRATIC,
        Potential(eta=-1.0, beta=1.0),
        Potential(eta=-1.0, terms=((1.0, 1.5),)),
    ):
        prev = QuantileGrid(np.sort(rng.uniform(-1, 1, n)))
        tau = 0.02
        cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
        ours = jko_step(W, prev, cfg)

        def objective(x):
            g = QuantileGrid(np.sort(x))
            d = np.sort(x) - prev.values
            return float(np.sum(d * d) / (2 * tau * n) + interaction_energy(W, g))

        constraints = [
            {"type": "ineq", "fun": (lambda x, k=k: x[k + 1] - x[k])}
            for k in range(n - 1)
        ]
        result = scipy_optimize.minimize(
            objective,
            prev.values,
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-14},
        )
        assert result.success
        assert objective(ours.values) <= objective(np.sort(result.x)) + 1e-10
        assert np.max(np.abs(ours.values - np.sort(result.x))) <= 1e-4


def test_small_step_matches_explicit_euler():
    rng = np.random.default_rng(73)
    W = Potential(eta=-0.5, beta=0.4, terms=((0.3, 1.7),))
    n = 24
    prev = QuantileGrid(np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-3)
    tau = 1e-5
    cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
    out = jko_step(W, prev, cfg)
    euler = prev.values - tau * n * energy_subgradient(W, prev)
    assert np.max(np.abs(out.values - euler)) <= 1e-3 * tau


def test_quadratic_step_contracts_to_mean():
    n = 40
    tau = 0.05
    cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
    prev = to_quantile_grid(Measure1D.uniform(-1, 1), n)
    out = jko_step(QUADRATIC, prev, cfg)
    assert np.max(np.abs(out.values - prev.values / (1 + tau))) <= 1e-8


def test_step_never_increases_objective():
    rng = np.random.default_rng(79)
    for W in (REPULSIVE, ATTRACTIVE, QUADRATIC):
        n = 20
        prev = QuantileGrid(np.sort(rng.uniform(-1, 1, n)))
        cfg = JkoConfig(tau=0.01, n=n, t_end=1.0)
        out = jko_step(W, prev, cfg)

        def penalized(g):
            d = g.values - prev.values
            return np.sum(d * d) / (2 * cfg.tau * n) + interaction_energy(W, g)

        assert penalized(out) <= penalized(prev) + 1e-12


def _penalized(W, prev, g, tau):
    d = g.values - prev.values
    return float(d @ d) / (2 * tau * prev.n) + interaction_energy(W, g)


def _prox_residual(W, prev, out, tau):
    """Prox-gradient residual of ``out`` for the step from ``prev``, rebuilt
    from public functions: ``|P(x - alpha g) - x| / alpha`` for the n-scaled
    objective, with the step length the solver starts from."""
    x = out.values
    g = (x - prev.values) / tau + out.n * energy_subgradient(W, out)
    radius = max(1.0, 2.0 * float(np.max(np.abs(prev.values))) + 1.0)
    alpha = 1.0 / (1.0 / tau + 2.0 * curvature_bound(W, radius))
    return float(np.linalg.norm(isotonic_project(x - alpha * g).values - x)) / alpha


@st.composite
def _convex_potential(draw):
    """A cusp of either sign, beta >= 0 and nonnegative powers with p in
    [1.25, 2], zero coefficients included; a nonzero cusp has |eta| >= 1/4."""
    cusp = st.one_of(st.just(0.0), st.floats(0.25, 2.0), st.floats(-2.0, -0.25))
    power = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), st.floats(1.25, 2.0))
    terms = draw(st.lists(power, max_size=2))
    return Potential(eta=draw(cusp), beta=draw(st.floats(0.0, 2.0)), terms=tuple(terms))


# Near a tie a power with p < 2 has curvature c p (p-1) gap^(p-2); where the
# minimizing gap is tiny (a weak cusp splitting a tie against p near 1, or a
# power pulling two close points together) one ulp of the grid values moves
# the gradient by more than inner_tol, and the step is rightly refused.  So
# the values lie on a 1/8 lattice, gaps are 0 or at least 1/8, and the cusp
# and exponent stay clear of 0 and 1.
@settings(max_examples=120, deadline=None)
@given(
    _convex_potential(),
    st.lists(st.integers(-24, 24).map(lambda k: k / 8.0), min_size=1, max_size=8),
    st.sampled_from([-2.5, 0.75, 4.0]),
)
# ties split against powers with p < 2 (projected gradient alone stalls on
# the first two)
@example(Potential(eta=-0.25, terms=((1.0, 1.25),)), [0.0, 0.0], -2.5)
@example(Potential(eta=-0.5, terms=((2.0, 1.5), (2.0, 1.5))), [0.0, 0.0], 0.75)
@example(
    Potential(eta=-1.0, beta=1.0, terms=((1.0, 1.25), (2.0, 2.0))),
    [-1.0, 0.0, 0.0, 0.0, 1.0],
    4.0,
)
def test_step_invariants(W, values, shift):
    """Translation equivariance, centre of mass, monotone output and no
    increase of the penalized objective, for one step from ``values``."""
    prev = QuantileGrid(np.sort(values))
    cert = convexity_certificate(W)
    cfg = JkoConfig(tau=0.05 / (1.0 + cert.lambda_minus), n=prev.n, t_end=1.0)
    out = jko_step(W, prev, cfg)
    moved = jko_step(W, QuantileGrid(prev.values + shift), cfg)
    scale = 1.0 + float(np.max(np.abs(prev.values)))
    assert np.all(np.diff(out.values) >= 0.0)
    assert abs(np.mean(out.values) - np.mean(prev.values)) <= 1e-12 * scale
    before = _penalized(W, prev, prev, cfg.tau)
    assert _penalized(W, prev, out, cfg.tau) <= before + 1e-12 * (1.0 + abs(before))
    assert np.max(np.abs(moved.values - shift - out.values)) <= 1e-9 * (scale + abs(shift))


@st.composite
def _power_free_step(draw):
    """A potential with no power term once p = 2 terms join the quadratic:
    a cusp of either sign, any beta and p = 2 terms of either sign; and a
    tau within the step bound of its certificate, up to the bound itself
    where ``lambda_minus >= 1/4`` (a tinier one would allow a vast tau)."""
    coef = st.floats(-2.0, 2.0)
    terms = draw(st.lists(st.tuples(coef, st.just(2.0)), max_size=2))
    W = Potential(eta=draw(coef), beta=draw(coef), terms=tuple(terms))
    lam = convexity_certificate(W).lambda_minus
    return W, draw(st.floats(0.05, 1.0)) / (12.0 * max(lam, 0.25))


@settings(max_examples=150, deadline=None)
@given(
    _power_free_step(),
    st.lists(st.integers(-24, 24).map(lambda k: k / 8.0), min_size=1, max_size=12),
)
@example((Potential(eta=1.0, beta=-1.0), 1.0 / 12.0), [0.0, 0.0, 0.5, 0.5, 0.5])
def test_power_free_step_is_one_projection(case, values):
    """Without a power term the step meets the stopping rule, keeps the
    mean and is ``c + P(((x_prev - c)/tau - eta r/n)/(1/tau + beta))``,
    with ``c`` the mean, ``r_i = 2i + 1 - n`` and beta with p = 2 folded in."""
    W, tau = case
    prev = QuantileGrid(np.sort(values))
    n = prev.n
    cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
    out = jko_step(W, prev, cfg)
    scale = 1.0 + float(np.max(np.abs(prev.values)))
    assert _prox_residual(W, prev, out, tau) <= cfg.inner_tol
    c = float(np.mean(prev.values))
    assert abs(np.mean(out.values) - c) <= 1e-12 * scale
    beta = W.beta + sum(2.0 * k for k, _ in W.terms)
    r = 2.0 * np.arange(n) + 1.0 - n
    want = c + isotonic_project(((prev.values - c) / tau - W.eta * r / n) / (1.0 / tau + beta)).values
    assert np.max(np.abs(out.values - want)) <= 1e-12 * scale


def test_a_zero_power_term_changes_nothing():
    from wgflow import ParticleState, integrate

    zero, bare = Potential(eta=-1.0, terms=((0.0, 1.5),)), Potential(eta=-1.0)
    prev = to_quantile_grid(Measure1D(atoms=((-0.5, 0.5), (0.7, 0.5))), 40)
    cfg = JkoConfig(tau=0.01, n=40, t_end=1.0)
    assert np.array_equal(jko_step(zero, prev, cfg).values, jko_step(bare, prev, cfg).values)
    st0 = ParticleState([-1.0, 0.0, 0.0, 1.0], [0.25] * 4)
    ours, theirs = integrate(zero, st0, 0.5, 0.01), integrate(bare, st0, 0.5, 0.01)
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.time == b.time
        assert np.array_equal(a.positions, b.positions) and np.array_equal(a.masses, b.masses)


def test_step_converges_on_near_linear_power_from_tie():
    # a positive power with p near 1 has curvature unbounded at ties
    W = Potential(eta=-1.0, terms=((2.0, 1.125),))
    prev = QuantileGrid(np.zeros(2))
    cfg = JkoConfig(tau=0.025, n=2, t_end=1.0)
    out = jko_step(W, prev, cfg)
    assert out.values[0] < out.values[1]
    assert _prox_residual(W, prev, out, cfg.tau) <= cfg.inner_tol


@pytest.mark.parametrize(
    "W",
    [REPULSIVE, Potential(eta=-1.0, beta=1.0), POWER],
    ids=["cusp", "cusp_quadratic", "power"],
)
def test_step_output_meets_stopping_rule(W):
    """The returned grid itself has prox-gradient residual <= inner_tol."""
    rng = np.random.default_rng(31)
    tau = 0.01
    for prev in (
        QuantileGrid(np.zeros(40)),
        QuantileGrid(np.sort(rng.uniform(-1.0, 1.0, 40))),
        to_quantile_grid(Measure1D(atoms=((-0.5, 0.5), (0.7, 0.5))), 40),
    ):
        cfg = JkoConfig(tau=tau, n=prev.n, t_end=1.0)
        out = jko_step(W, prev, cfg)
        assert _prox_residual(W, prev, out, tau) <= cfg.inner_tol
        loose = JkoConfig(tau=tau, n=prev.n, t_end=1.0, inner_tol=1e300)
        if W.terms:
            # the check is made at the grid returned: under a tolerance that
            # prev already meets, prev comes back unmoved
            assert np.array_equal(jko_step(W, prev, loose).values, prev.values)
        else:
            # one projection, which no tolerance moves
            assert np.array_equal(jko_step(W, prev, loose).values, out.values)


def test_convergence_failure_carries_state():
    cfg = JkoConfig(tau=0.01, n=16, t_end=1.0, inner_max_iters=1, inner_tol=1e-16)
    with pytest.raises(ConvergenceFailure) as info:
        jko_step(POWER, to_quantile_grid(Measure1D.uniform(-1, 1), 16), cfg)
    assert info.value.last.n == 16
    assert info.value.residual > 0
    assert info.value.residuals == (info.value.residual,)  # one per iteration


def test_backtracking_failure_raises(monkeypatch):
    """A step whose line search never finds sufficient decrease is refused."""
    import itertools

    import wgflow.jko as jko
    from wgflow.potential import pair_force

    # every energy after the first, at the starting grid, is larger, so
    # neither the Newton trial nor any backtracking trial passes; each trial
    # takes energy and force together
    calls = itertools.count()
    monkeypatch.setattr(
        jko, "pair_energy_force", lambda W, x, m, cone: (float(next(calls)), pair_force(W, x, m, cone))
    )
    prev = to_quantile_grid(Measure1D.dirac(0.0), 16)
    cfg = JkoConfig(tau=0.01, n=16, t_end=1.0)
    with pytest.raises(ConvergenceFailure, match="backtracking") as info:
        jko_step(POWER, prev, cfg)
    assert next(calls) == 2 + jko.BACKTRACK_HALVINGS
    assert info.value.last == prev
    assert info.value.residual == np.inf


def test_flow_dirac_diffusion():
    cfg = JkoConfig(tau=1e-3, n=100, t_end=1.0)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    target = QuantileGrid(2.0 * _nodes(100) - 1.0)
    assert w2_quantile(traj.state(-1), target) <= 2 * cfg.tau
    assert traj.grids.shape[0] == 1001
    assert np.all(np.diff(traj.energies) <= 1e-12)


def test_flow_total_collapse():
    cfg = JkoConfig(tau=2e-3, n=64, t_end=3.0)
    traj = run_flow(ATTRACTIVE, Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))), cfg)
    final = traj.state(-1).values
    assert final.max() - final.min() <= 1e-6
    assert abs(final[0]) <= 1e-9
    assert np.all(np.diff(traj.energies) <= 1e-10)
    # collapse happens close to the pair-closing time 2
    collapsed_at = traj.times[
        next(
            k
            for k, g in enumerate(traj.grids)
            if g.max() - g.min() <= 1e-9
        )
    ]
    assert collapsed_at == pytest.approx(2.0, abs=0.05)


def test_flow_two_dirac_blocks():
    x1, x2 = -0.5, 0.7
    cfg = JkoConfig(tau=1e-3, n=100, t_end=1.0)
    init = Measure1D(atoms=((x1, 0.5), (x2, 0.5)))
    traj = run_flow(REPULSIVE, init, cfg)
    z = _nodes(100)
    expected = np.where(z < 0.5, x1, x2) + 1.0 * (2 * z - 1)
    assert w2_quantile(traj.state(-1), QuantileGrid(expected)) <= 2 * cfg.tau


def test_step_monotonicity_inequality():
    cfg = JkoConfig(tau=5e-3, n=50, t_end=0.2)
    traj = run_flow(REPULSIVE, Measure1D(atoms=((0.0, 0.5), (1.0, 0.5))), cfg)
    for k in range(traj.step_costs.size):
        lhs = traj.energies[k + 1] + traj.step_costs[k]
        assert lhs <= traj.energies[k] + 1e-10


def test_center_of_mass_conserved():
    cfg = JkoConfig(tau=1e-3, n=80, t_end=0.5)
    init = Measure1D(atoms=((-0.3, 0.25), (0.1, 0.5), (0.9, 0.25)))
    traj = run_flow(REPULSIVE, init, cfg)
    first = np.mean(traj.state(0).values)
    for k, t in enumerate(traj.times):
        assert abs(np.mean(traj.state(k).values) - first) <= 1e-9 * max(t, 1.0)


def test_atoms_leave_immediately_under_repulsive_cusp():
    cfg = JkoConfig(tau=1e-3, n=60, t_end=1.0)
    for init in (
        Measure1D.dirac(0.0),
        Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))),
        Measure1D(atoms=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
    ):
        g0 = to_quantile_grid(init, cfg.n)
        g1 = jko_step(REPULSIVE, g0, cfg)
        assert np.all(np.diff(g1.values) > 0.0)


def test_grid_refinement_first_order():
    init = Measure1D(atoms=((0.0, 0.5), (1.0, 0.5)))
    tau, t_end = 2e-3, 0.2
    finals = {}
    for n in (50, 100, 200):
        cfg = JkoConfig(tau=tau, n=n, t_end=t_end)
        traj = run_flow(REPULSIVE, init, cfg)
        finals[n] = from_quantile_grid(traj.state(-1))
    d1 = w2_exact_discrete(finals[50], finals[100])
    d2 = w2_exact_discrete(finals[100], finals[200])
    assert d2 <= d1 / 1.5
    assert d1 <= 10.0 / 50


def test_evi_own_state_telescopes():
    cfg = JkoConfig(tau=2e-3, n=40, t_end=0.1)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    for k in (0, 10, 30):
        res = evi_residual(REPULSIVE, traj, traj.state(k))
        assert res[max(k - 1, 0)] <= 1e-8


def test_evi_quadratic_flow():
    cfg = JkoConfig(tau=1e-3, n=60, t_end=0.5)
    traj = run_flow(QUADRATIC, Measure1D.uniform(-1, 1), cfg)
    sigma = to_quantile_grid(Measure1D.dirac(0.0), 60)
    assert np.max(evi_residual(QUADRATIC, traj, sigma)) <= 1e-2


def test_evi_grid_size_mismatch():
    cfg = JkoConfig(tau=1e-2, n=10, t_end=0.05)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    with pytest.raises(DomainError):
        evi_residual(REPULSIVE, traj, QuantileGrid(np.zeros(5)))


def test_energy_identity_zero_steps():
    cfg = JkoConfig(tau=1e-2, n=10, t_end=0.0)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    assert energy_identity_residual(REPULSIVE, traj) == 0.0


def test_energy_identity_after_collapse_frozen():
    cfg = JkoConfig(tau=2e-3, n=32, t_end=3.0)
    traj = run_flow(ATTRACTIVE, Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))), cfg)
    # both sides of the identity freeze once everything has merged
    assert traj.step_costs[-1] == 0.0
    assert traj.energies[-1] == traj.energies[-2]


def test_t_end_must_be_step_multiple():
    with pytest.raises(DomainError):
        JkoConfig(tau=3e-3, n=8, t_end=1.0).step_count()


@st.composite
def _certifiable_potential(draw):
    """A jko-eligible potential that has a certificate: any cusp and beta,
    nonnegative powers with p in (1, 2], negative powers only at p = 2."""
    coef = st.floats(-2.0, 2.0)
    positive = st.tuples(st.floats(0.0, 2.0), st.floats(1.0, 2.0, exclude_min=True))
    negative = st.tuples(st.floats(-2.0, 0.0, exclude_max=True), st.just(2.0))
    terms = draw(st.lists(st.one_of(positive, negative), max_size=3))
    return Potential(eta=draw(coef), beta=draw(coef), terms=tuple(terms))


@settings(max_examples=150, deadline=None)
@given(_certifiable_potential(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
@example(  # every term negative, compensated to a potential of 0
    Potential(eta=-1.8785988224635535, beta=-1.5084315911799626,
              terms=((-0.9047296015725295, 2.0), (-0.4973501602901442, 2.0),
                     (-1.255629454869592, 2.0))),
    [0.0],
)
@example(  # a subnormal gap, where the Hessian weight d**(p - 2) passes the float range
    Potential(eta=-1.0, beta=0.0, terms=((0.5, 1.0000000000000002),)),
    [0.0, 2.225073858507203e-309],
)
@example(  # a gap of the smallest normal float: the Newton curvature overflows
    Potential(eta=-1.875, terms=((1.75, 1.125),)),
    [0.0, 1.0, 2.2250738585072014e-308],
)
@example(  # the same gap, where pair_hessian's product itself overflows
    Potential(eta=-1.0, terms=((1.0, 1.03125),)),
    [0.0, 1.0, 2.2250738585072014e-308],
)
def test_step_on_a_certifiable_potential_returns_or_fails_cleanly(W, values):
    """A step under the bound of W's certificate returns a grid or raises
    ``ConvergenceFailure``, and warns of nothing on the way."""
    prev = QuantileGrid(np.sort(values))
    cfg = JkoConfig(tau=0.05 / (1.0 + convexity_certificate(W).lambda_minus), n=prev.n, t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            jko_step(W, prev, cfg)
        except ConvergenceFailure:  # slow inner convergence near p -> 1
            pass


# float.hex of the row-wise diagnostics of a small cusp-plus-power flow.
# Step costs and EVI take the squared distances as row-wise mean squares
# (``_row_w2sq``); those pinned before squared the square roots as Python
# floats, and differed from these by at most 1 ulp in each squared distance.
PINNED_STEP_COSTS = (
    "0x1.d3d36db6e38e4p-12", "0x1.c166035ba933ap-12", "0x1.b349ae3ef4ab3p-12",
    "0x1.a76f31d7fc9dfp-12", "0x1.9d094f0986e16p-12", "0x1.93ae514d20bf7p-12",
    "0x1.8b1f2ee81d90dp-12", "0x1.8332adc0891bfp-12", "0x1.7bcc0fd59fd05p-12",
    "0x1.74d6542332dccp-12", "0x1.6e4190850d5d9p-12", "0x1.68015c1a57e2bp-12",
    "0x1.620bcf1f51951p-12", "0x1.5c58d9ef75cedp-12", "0x1.56e1d171329c5p-12",
    "0x1.51a11d9cacda9p-12", "0x1.4c91fe8e0beefp-12", "0x1.47b060f18aa8cp-12",
    "0x1.42f8bd28a76e1p-12", "0x1.3e67fe184d698p-12",
)
PINNED_SPEEDS = (
    "0x1.31e25ea7b5942p-2", "0x1.2bcca7645888ap-2", "0x1.270e20b1b8a37p-2",
    "0x1.2302951362a2dp-2", "0x1.1f6a30ecc5ff5p-2", "0x1.1c24218a4758ap-2",
    "0x1.191cdb48432b7p-2", "0x1.16479a9305a1ep-2", "0x1.139b7cb5d347ep-2",
    "0x1.111205d7feb33p-2", "0x1.0ea64e2900aa6p-2", "0x1.0c5483d8bc6dep-2",
    "0x1.0a199b8cdb49ep-2", "0x1.07f31beefbc33p-2", "0x1.05def9d3f44b0p-2",
    "0x1.03db7efb02457p-2", "0x1.01e737cccff4dp-2", "0x1.0000e5ddf2f6cp-2",
    "0x1.fc4eeb89be207p-3", "0x1.f8b3ee9f966d8p-3",
)
PINNED_EVI = (
    "-0x1.10f3688c55430p-2", "-0x1.0becfcda83b15p-2", "-0x1.07a7da800344dp-2",
    "-0x1.03cb6ad4ebf30p-2", "-0x1.0034deee1616bp-2", "-0x1.f9a43b6874548p-3",
    "-0x1.f33081dd18dc5p-3", "-0x1.ed002a7183a6cp-3", "-0x1.e7090fdc0260cp-3",
    "-0x1.e143b39d97d49p-3", "-0x1.dbaa5800b8b3dp-3", "-0x1.d63876090dfc5p-3",
    "-0x1.d0ea65f3aabdfp-3", "-0x1.cbbd2548197f8p-3", "-0x1.c6ae2f1458ed8p-3",
    "-0x1.c1bb5fcab5b22p-3", "-0x1.bce2e0d57e476p-3", "-0x1.b823196e610f5p-3",
    "-0x1.b37aa325ca420p-3", "-0x1.aee8410e788b7p-3",
)
PINNED_WEAK = "0x1.2b4242fb53438p-10"


def test_row_wise_diagnostics_keep_their_bits():
    W = Potential(eta=-1.0, terms=((0.5, 1.5),))
    init = Measure1D(atoms=((-0.5, 0.5), (0.5, 0.5)))
    traj = run_flow(W, init, JkoConfig(tau=0.01, n=16, t_end=0.2))
    sigma = to_quantile_grid(Measure1D.uniform(-1.6875, 1.6875), 16)
    bumps = default_bump_library((-2.0, 2.0), (0.01, 0.19))

    def hexes(values):
        return tuple(float(v).hex() for v in values)

    assert hexes(traj.step_costs) == PINNED_STEP_COSTS
    assert hexes(metric_derivative_estimate(traj)) == PINNED_SPEEDS
    assert hexes(evi_residual(W, traj, sigma)) == PINNED_EVI
    assert float(weak_residual(traj, W, bumps)).hex() == PINNED_WEAK


def test_step_costs_are_the_row_wise_mean_squares():
    W = Potential(eta=-1.0, terms=((0.5, 1.5),))
    init = Measure1D(atoms=((-0.5, 0.5), (0.5, 0.5)))
    traj = run_flow(W, init, JkoConfig(tau=0.01, n=16, t_end=0.2))
    spans = 2.0 * np.diff(traj.times)
    squares = _row_w2sq(traj.grids[:-1], traj.grids[1:])
    assert np.array_equal(traj.step_costs, squares / spans)
    # the mean square itself, not its root squared, which is within 2 ulp
    squared_roots = np.array([w2_quantile(traj.state(k), traj.state(k + 1)) ** 2 for k in range(spans.size)])
    gap = np.abs(traj.step_costs - squared_roots / spans)
    assert np.all(gap <= 2.0 * np.spacing(traj.step_costs))


def _small_trajectory():
    grids = np.array([[0.0, 1.0, 2.0], [0.0, 1.5, 2.5]])
    return grids, np.array([0.0, 0.1]), np.array([1.0, 0.5]), np.array([0.2])


@pytest.mark.parametrize(
    "field, value",
    [
        ("grids", np.array([[0.0, 1.0, 2.0], [0.0, 2.5, 1.5]])),  # a decreasing row
        ("grids", np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.5]])),
        ("grids", np.array([[0.0, 1.0, 2.0], [0.0, 1.5, np.inf]])),
        ("grids", np.empty((0, 3))),
        ("grids", np.array([0.0, 1.0, 2.0])),  # one state not held as a row
        ("times", np.array([0.0, 0.1, 0.2])),
        ("energies", np.array([1.0])),
        ("step_costs", np.array([0.2, 0.1])),
    ],
)
def test_flow_trajectory_refuses_bad_arrays(field, value):
    grids, times, energies, step_costs = _small_trajectory()
    args = dict(times=times, grids=grids, energies=energies, step_costs=step_costs)
    args[field] = value
    with pytest.raises(DomainError):
        FlowTrajectory(**args)


def test_flow_trajectory_freezes_its_grids():
    grids, times, energies, step_costs = _small_trajectory()
    traj = FlowTrajectory(times, grids, energies, step_costs)
    assert traj.grids.base is grids  # C-contiguous float64 is kept, not copied
    assert not grids.flags.writeable
    with pytest.raises(ValueError):
        traj.grids[0, 0] = -1.0
    assert traj.state(1) == QuantileGrid([0.0, 1.5, 2.5])
    assert traj.grid_size == 3
    strided = FlowTrajectory(times, np.asfortranarray(grids), energies, step_costs)
    assert strided.grids.flags.c_contiguous and not strided.grids.flags.writeable
    assert np.array_equal(strided.grids, grids)


def test_flow_trajectory_freezes_its_own_arrays_not_the_callers():
    """A trajectory's times, energies and step arrays are frozen; those
    handed to the array constructor or to ``_trajectory`` stay writable."""
    from wgflow.jko import _trajectory

    grids, times, energies, step_costs = _small_trajectory()
    made = _trajectory(REPULSIVE, times, lambda lo, hi: grids[lo:hi], 3)
    for traj in (FlowTrajectory(times, grids, energies, step_costs), made):
        for arr in (traj.times, traj.energies, traj.step_costs, traj.step_squares):
            assert not arr.flags.writeable
    assert times.flags.writeable and energies.flags.writeable and step_costs.flags.writeable


@pytest.mark.parametrize(
    "W",
    [REPULSIVE, Potential(eta=-1.0, beta=1.0), Potential(eta=-1.0, terms=((0.5, 1.5),))],
    ids=["cusp", "cusp_quadratic", "cusp_power"],
)
def test_run_flow_energies_are_the_pair_energies_of_its_grids(W):
    init = Measure1D(atoms=((-0.5, 0.25), (0.25, 0.5), (0.5, 0.25)))
    traj = run_flow(W, init, JkoConfig(tau=0.01, n=24, t_end=0.1))
    m = np.full(24, 1.0 / 24)
    assert np.array_equal(traj.energies, pair_energy(W, traj.grids, m))


# README config and cusp+quadratic (one projection per step) and the power
# workload's |x|^1.5 (Newton trials), each on fewer steps
FLOW_RUNS = {
    "readme": (REPULSIVE, Measure1D.dirac(0.0), JkoConfig(tau=1e-3, n=200, t_end=0.1)),
    "power": (POWER, Measure1D.dirac(0.3), JkoConfig(tau=1e-2, n=100, t_end=0.05)),
    "cusp_quadratic": (
        Potential(eta=-1.0, beta=1.0),
        Measure1D(atoms=((-0.4, 0.3), (0.6, 0.7))),
        JkoConfig(tau=1e-2, n=400, t_end=0.02),
    ),
}


@pytest.mark.parametrize("name", sorted(FLOW_RUNS))
def test_run_flow_equals_steps_taken_without_a_record(name):
    from wgflow.jko import _trajectory

    W, init, cfg = FLOW_RUNS[name]
    traj = run_flow(W, init, cfg)
    state = to_quantile_grid(init, cfg.n)
    grids = [state.values]
    for _ in range(cfg.step_count()):
        state = jko_step(W, state, cfg)
        grids.append(state.values)
    grids = np.array(grids)
    alone = _trajectory(W, traj.times, lambda lo, hi: grids[lo:hi], cfg.n)
    # the run's rows, read back from its spill file, are read-only and the
    # steps' bit for bit
    for states, steps, block in traj.row_blocks():
        assert block.dtype == float and block.flags.c_contiguous and not block.flags.writeable
        assert block.tobytes() == grids[states.start : steps.stop + 1].tobytes()
    assert traj.grids.tobytes() == grids.tobytes() and not traj.grids.flags.writeable
    assert traj.state(-1) == state
    assert np.array_equal(traj.energies, alone.energies)
    assert np.array_equal(traj.step_costs, alone.step_costs)


def _count_pair_passes(monkeypatch, energy=None):
    """Count ``jko``'s ``pair_energy_force`` calls; ``energy(k, e)`` may
    replace the energy of call ``k``."""
    import wgflow.jko as jko

    real, calls = jko.pair_energy_force, []

    def counted(W, x, m, cone):
        e, f = real(W, x, m, cone=cone)
        calls.append(None)
        return (e if energy is None else energy(len(calls) - 1, e)), f

    monkeypatch.setattr(jko, "pair_energy_force", counted)
    return calls


def test_readme_flow_makes_no_pair_energy_force_call(monkeypatch):
    calls = _count_pair_passes(monkeypatch)
    run_flow(REPULSIVE, Measure1D.dirac(0.0), JkoConfig(tau=1e-3, n=200, t_end=1.0))
    assert calls == []


# Steps 0..2 of POWER from a Dirac at n = 16 take calls 0..12 (five for the
# first, four each after it); step 3 takes its starting pass at call 13, and
# from call 14, its first trial, no energy is low enough to accept.
FIRST_REFUSED_PASS = 14


def test_run_flow_failure_carries_its_step_index(monkeypatch):
    _count_pair_passes(monkeypatch, lambda k, e: e if k < FIRST_REFUSED_PASS else 1e300)
    cfg = JkoConfig(tau=0.01, n=16, t_end=0.1)
    with pytest.raises(ConvergenceFailure, match="backtracking") as info:
        run_flow(POWER, Measure1D.dirac(0.0), cfg)
    assert info.value.step_index == 3
    monkeypatch.undo()
    before = run_flow(POWER, Measure1D.dirac(0.0), JkoConfig(tau=0.01, n=16, t_end=0.03))
    assert info.value.last == before.state(3)
    assert info.value.residual == np.inf


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_spill_file_closes_with_its_trajectory_or_on_failure(monkeypatch):
    gc.collect()  # spill files of earlier tests' trajectories still waiting to be collected
    before = _open_fds()
    traj = run_flow(POWER, Measure1D.dirac(0.0), JkoConfig(tau=0.01, n=16, t_end=0.1))
    assert _open_fds() == before + 1
    del traj
    assert _open_fds() == before
    # a failure mid-run closes the file before it propagates
    _count_pair_passes(monkeypatch, lambda k, e: e if k < FIRST_REFUSED_PASS else 1e300)
    with pytest.raises(ConvergenceFailure) as info:
        run_flow(POWER, Measure1D.dirac(0.0), JkoConfig(tau=0.01, n=16, t_end=0.1))
    assert info.value.step_index == 3
    assert _open_fds() == before
