"""Implicit stepping: projection, single steps, full flows, and identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgflow import (
    ConvergenceFailure,
    DomainError,
    JkoConfig,
    Measure1D,
    Potential,
    QuantileGrid,
    convexity_certificate,
    energy_identity_residual,
    energy_subgradient,
    evi_residual,
    interaction_energy,
    isotonic_project,
    jko_step,
    run_flow,
    to_quantile_grid,
    w2_exact_discrete,
    w2_quantile,
    from_quantile_grid,
)
from oracles import lattice_isotonic
from wgflow.potential import curvature_bound

REPULSIVE = Potential(eta=-1.0)
ATTRACTIVE = Potential(eta=1.0)
QUADRATIC = Potential(beta=1.0)


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

    def objective(x):
        g = QuantileGrid(np.sort(x))
        return np.sum(x * x) / (2 * tau * 3) + interaction_energy(REPULSIVE, g)

    span = np.linspace(-3 * tau, 3 * tau, 121)
    best, best_val = None, np.inf
    for a in span:
        for b in span[span >= a]:
            cs = span[span >= b]
            vals = [objective(np.array([a, b, c])) for c in cs]
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = vals[k]
                best = np.array([a, b, cs[k]])
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
    out = jko_step(W, prev, cfg, cert)
    moved = jko_step(W, QuantileGrid(prev.values + shift), cfg, cert)
    scale = 1.0 + float(np.max(np.abs(prev.values)))
    assert np.all(np.diff(out.values) >= 0.0)
    assert abs(np.mean(out.values) - np.mean(prev.values)) <= 1e-12 * scale
    before = _penalized(W, prev, prev, cfg.tau)
    assert _penalized(W, prev, out, cfg.tau) <= before + 1e-12 * (1.0 + abs(before))
    assert np.max(np.abs(moved.values - shift - out.values)) <= 1e-9 * (scale + abs(shift))


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
    [REPULSIVE, Potential(eta=-1.0, beta=1.0), Potential(eta=-1.0, terms=((1.0, 1.5),))],
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
        # the check is made at the grid returned: under a tolerance that
        # prev already meets, prev comes back unmoved
        loose = JkoConfig(tau=tau, n=prev.n, t_end=1.0, inner_tol=1e300)
        assert np.array_equal(jko_step(W, prev, loose).values, prev.values)


def test_convergence_failure_carries_state():
    cfg = JkoConfig(tau=0.01, n=16, t_end=1.0, inner_max_iters=1, inner_tol=1e-16)
    with pytest.raises(ConvergenceFailure) as info:
        jko_step(QUADRATIC, to_quantile_grid(Measure1D.uniform(-1, 1), 16), cfg)
    assert info.value.last.n == 16
    assert info.value.residual > 0
    assert info.value.residuals == (info.value.residual,)  # one per iteration


def test_backtracking_failure_raises(monkeypatch):
    """A step whose line search never finds sufficient decrease is refused."""
    import itertools

    import wgflow.jko as jko

    # every energy evaluation after the first is larger, so no trial passes
    calls = itertools.count()
    monkeypatch.setattr(jko, "pair_energy", lambda W, x, m: float(next(calls)))
    prev = to_quantile_grid(Measure1D.dirac(0.0), 16)
    cfg = JkoConfig(tau=0.01, n=16, t_end=1.0)
    with pytest.raises(ConvergenceFailure, match="backtracking") as info:
        jko_step(REPULSIVE, prev, cfg)
    assert next(calls) == 1 + jko.BACKTRACK_HALVINGS
    assert info.value.last == prev
    assert info.value.residual == np.inf


def test_flow_dirac_diffusion():
    cfg = JkoConfig(tau=1e-3, n=100, t_end=1.0)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    target = QuantileGrid(2.0 * _nodes(100) - 1.0)
    assert w2_quantile(traj.states[-1], target) <= 2 * cfg.tau
    assert len(traj.states) == 1001
    assert np.all(np.diff(traj.energies) <= 1e-12)


def test_flow_total_collapse():
    cfg = JkoConfig(tau=2e-3, n=64, t_end=3.0)
    traj = run_flow(ATTRACTIVE, Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))), cfg)
    final = traj.states[-1].values
    assert final.max() - final.min() <= 1e-6
    assert abs(final[0]) <= 1e-9
    assert np.all(np.diff(traj.energies) <= 1e-10)
    # collapse happens close to the pair-closing time 2
    collapsed_at = traj.times[
        next(
            k
            for k, g in enumerate(traj.states)
            if g.values.max() - g.values.min() <= 1e-9
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
    assert w2_quantile(traj.states[-1], QuantileGrid(expected)) <= 2 * cfg.tau


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
    first = np.mean(traj.states[0].values)
    for g, t in zip(traj.states, traj.times):
        assert abs(np.mean(g.values) - first) <= 1e-9 * max(t, 1.0)


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
        finals[n] = from_quantile_grid(traj.states[-1])
    d1 = w2_exact_discrete(finals[50], finals[100])
    d2 = w2_exact_discrete(finals[100], finals[200])
    assert d2 <= d1 / 1.5
    assert d1 <= 10.0 / 50


def test_evi_own_state_telescopes():
    cfg = JkoConfig(tau=2e-3, n=40, t_end=0.1)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    for k in (0, 10, 30):
        res = evi_residual(REPULSIVE, traj, traj.states[k])
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
@example(  # summands near 1e6 at radius 1e3 cancel to a compensated potential of 0
    Potential(eta=-1.8785988224635535, beta=-1.5084315911799626,
              terms=((-0.9047296015725295, 2.0), (-0.4973501602901442, 2.0),
                     (-1.255629454869592, 2.0))),
    [0.0],
)
def test_certificate_does_not_depend_on_radius(W, values):
    # a negative term has p = 2, where r**(p - 2) = 1, so the radius drops out
    certs = [convexity_certificate(W, radius=r) for r in (1.0, 10.0, 1e3)]
    assert len({(c.lambda_prime, c.lambda_second) for c in certs}) == 1
    prev = QuantileGrid(np.sort(values))
    cfg = JkoConfig(tau=0.05 / (1.0 + certs[0].lambda_minus), n=prev.n, t_end=1.0)

    def outcome(cert):
        try:
            return jko_step(W, prev, cfg, cert).values.tobytes()
        except ConvergenceFailure as failure:  # slow inner convergence near p -> 1
            return failure.last.values.tobytes(), failure.residual

    # a state-sized certificate and run_flow's radius-10 one give one step
    assert outcome(None) == outcome(convexity_certificate(W))
