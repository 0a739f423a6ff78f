"""Potential evaluation, energies, force fields, and the cone calculus."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgflow.potential

from wgflow import (
    DomainError,
    Measure1D,
    Potential,
    QuantileGrid,
    convexity_certificate,
    deriv_smooth,
    energy_subgradient,
    evaluate,
    interaction_energy,
    to_quantile_grid,
    velocity_profile,
)
from oracles import (
    blocked_power_hessian,
    blocked_power_sums,
    central_difference,
    dense_pair_hessian,
    dense_pair_sums,
    midpoint_convexity_violated,
)
from wgflow.potential import (
    PAIR_TILE,
    ConvexityCertificate,
    _gap_tiles,
    _lower_tiles,
    pair_energy,
    pair_energy_force,
    pair_force,
    pair_hessian,
)

CUSP_REPULSIVE = Potential(eta=-1.0)
CUSP_ATTRACTIVE = Potential(eta=1.0)
QUADRATIC = Potential(beta=1.0)
CUBIC = Potential(terms=((1.0 / 3.0, 3.0),))


def _random_increasing(rng, n, lo=-1.0, hi=1.0, min_gap=1e-3):
    raw = np.sort(rng.uniform(lo, hi, size=n))
    return QuantileGrid(raw + np.arange(n) * min_gap)


def test_evaluate_examples():
    assert evaluate(CUSP_REPULSIVE, 2.0) == -2.0
    assert evaluate(CUBIC, 2.0) == pytest.approx(8.0 / 3.0, abs=1e-15)
    for W in (CUSP_REPULSIVE, CUSP_ATTRACTIVE, QUADRATIC, CUBIC):
        assert evaluate(W, 0.0) == 0.0


def test_evenness_exact():
    rng = np.random.default_rng(3)
    W = Potential(eta=-0.7, beta=0.4, terms=((0.2, 1.5), (0.1, 2.0)))
    for x in rng.normal(size=100):
        assert evaluate(W, x) == evaluate(W, -x)


def test_exponent_validation():
    with pytest.raises(DomainError):
        Potential(terms=((1.0, 1.0),))
    with pytest.raises(DomainError):
        Potential(terms=((1.0, 0.5),))


def test_jko_eligibility_flag():
    assert CUSP_REPULSIVE.jko_eligible
    assert QUADRATIC.jko_eligible
    assert Potential(terms=((1.0, 2.0),)).jko_eligible
    assert not CUBIC.jko_eligible


def test_deriv_smooth_examples():
    assert deriv_smooth(CUSP_REPULSIVE, 1.7) == 0.0
    assert deriv_smooth(CUBIC, -2.0) == pytest.approx(-4.0, abs=1e-12)
    h = 1e-6
    fd = (evaluate(CUBIC, -2.0 + h) - evaluate(CUBIC, -2.0 - h)) / (2 * h)
    assert deriv_smooth(CUBIC, -2.0) == pytest.approx(fd, abs=1e-6)
    assert deriv_smooth(QUADRATIC, 5.0) == 5.0
    assert deriv_smooth(CUBIC, 0.0) == 0.0


def test_interaction_energy_examples():
    g_dirac = to_quantile_grid(Measure1D.dirac(0.4), 32)
    assert interaction_energy(CUSP_REPULSIVE, g_dirac) == 0.0
    for t in (0.5, 1.0):
        g = to_quantile_grid(Measure1D.uniform(-t, t), 400)
        assert interaction_energy(CUSP_REPULSIVE, g) == pytest.approx(
            -t / 3.0, abs=2e-3 * t
        )
        pair = QuantileGrid([-t / 2.0, t / 2.0])
        assert interaction_energy(CUSP_REPULSIVE, pair) == pytest.approx(
            -t / 4.0, abs=1e-15
        )


def test_translation_invariance_exact():
    rng = np.random.default_rng(41)
    W = Potential(eta=-1.0, beta=0.5)
    g = _random_increasing(rng, 24)
    base = interaction_energy(W, g)
    for c in (1.0, -2.5, 0.125):
        shifted = QuantileGrid(g.values + c)
        assert interaction_energy(W, shifted) == pytest.approx(base, abs=1e-13)


def test_velocity_field_examples():
    g_dirac = to_quantile_grid(Measure1D.dirac(0.0), 16)
    assert np.all(velocity_profile(CUSP_REPULSIVE, g_dirac) == 0.0)
    t = 1.3
    g = to_quantile_grid(Measure1D.uniform(-t, t), 500)
    v = velocity_profile(CUSP_REPULSIVE, g)
    for i in (50, 250, 449):
        assert v[i] == pytest.approx(g.values[i] / t, abs=5.0 / 500)
    pair = velocity_profile(CUSP_ATTRACTIVE, QuantileGrid([-0.4, 0.4]))
    assert pair[0] == pytest.approx(0.5)
    assert pair[1] == pytest.approx(-0.5)


def test_velocity_profile_matches_pointwise():
    rng = np.random.default_rng(43)
    W = Potential(eta=-0.5, beta=0.3, terms=((0.2, 1.8),))
    g = _random_increasing(rng, 20)
    # minus the tie-excluding mean force, summed point by point
    _, _, force = dense_pair_sums(W.eta, W.beta, W.terms, g.values, np.full(g.n, 1.0 / g.n))
    assert np.allclose(velocity_profile(W, g), -force, rtol=0.0, atol=1e-14)


def test_zero_mean_force():
    rng = np.random.default_rng(47)
    for W in (CUSP_REPULSIVE, CUSP_ATTRACTIVE, QUADRATIC, CUBIC):
        g = _random_increasing(rng, 30)
        assert abs(np.mean(velocity_profile(W, g))) <= 1e-12


def test_energy_subgradient_collapsed_grid():
    g = QuantileGrid([0.0, 0.0, 0.0, 0.0])
    expected = (1.0 / 16.0) * (-1.0) * np.array([-3.0, -1.0, 1.0, 3.0])
    assert np.allclose(energy_subgradient(CUSP_REPULSIVE, g), expected, atol=1e-15)


def test_energy_subgradient_quadratic_identity():
    rng = np.random.default_rng(53)
    g = _random_increasing(rng, 25)
    sub = energy_subgradient(QUADRATIC, g)
    expected = (g.values - g.values.mean()) / g.n
    assert np.allclose(sub, expected, atol=1e-14)


def test_energy_subgradient_smooth_matches_finite_differences():
    rng = np.random.default_rng(59)
    W = Potential(beta=0.7, terms=((0.3, 1.6),))
    g = _random_increasing(rng, 12)

    def energy_of(vec):
        return interaction_energy(W, QuantileGrid(np.sort(vec)))

    fd = central_difference(energy_of, g.values, 1e-6)
    assert np.allclose(energy_subgradient(W, g), fd, atol=1e-6)


def test_energy_subgradient_cusp_matches_finite_differences():
    # strictly increasing grids keep the ordering under the perturbation,
    # so the cusp part of the energy is locally linear
    rng = np.random.default_rng(61)
    for W in (CUSP_REPULSIVE, CUSP_ATTRACTIVE):
        g = _random_increasing(rng, 10, min_gap=1e-2)

        def energy_of(vec):
            return interaction_energy(W, QuantileGrid(vec))

        fd = central_difference(energy_of, g.values, 1e-7)
        assert np.allclose(energy_subgradient(W, g), fd, atol=1e-7)


def test_cusp_energy_affine_along_interpolation():
    rng = np.random.default_rng(67)
    W = CUSP_REPULSIVE
    for _ in range(200):
        n = int(rng.integers(2, 40))
        g1 = QuantileGrid(np.sort(rng.uniform(-1, 1, size=n)))
        g2 = QuantileGrid(np.sort(rng.uniform(-1, 1, size=n)))
        e1 = interaction_energy(W, g1)
        e2 = interaction_energy(W, g2)
        for theta in (0.25, 0.5, 0.8):
            mid = QuantileGrid((1 - theta) * g1.values + theta * g2.values)
            target = (1 - theta) * e1 + theta * e2
            assert interaction_energy(W, mid) == pytest.approx(target, abs=1e-12)


def test_certificate_values():
    cert = convexity_certificate(CUSP_REPULSIVE)
    assert cert.lambda_prime == 1.0
    assert cert.lambda_second == 0.0
    assert cert.lambda_minus == 1.0
    assert convexity_certificate(CUSP_ATTRACTIVE).lambda_minus == 0.0
    assert convexity_certificate(QUADRATIC).lambda_minus == 0.0
    cert_neg_beta = convexity_certificate(Potential(beta=-0.5))
    assert cert_neg_beta.lambda_second == 0.5


def test_certificate_verification_rejects_bad_compensation():
    # a negative sub-quadratic power cannot be compensated at the origin
    with pytest.raises(DomainError):
        convexity_certificate(Potential(terms=((-1.0, 1.5),)))


def test_certificate_refuses_negative_subquadratic_power():
    # c p (p-1) |x|^(p-2) is unbounded below at 0: no finite lambda'' exists,
    # although the sampled midpoint check alone passes this potential
    with pytest.raises(DomainError, match="no convexity certificate"):
        convexity_certificate(Potential(beta=0.5, terms=((-0.1, 1.5),)))


_coef = st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    _coef,
    _coef,
    st.lists(st.tuples(_coef, st.floats(1.0, 4.0, exclude_min=True)), max_size=3),
    st.floats(0.5, 100.0),
)
def test_every_certified_potential_is_midpoint_convex_on_a_sample(eta, beta, terms, radius):
    """The certificate is closed form; the sampled check that once ran after
    it holds for every potential it accepts, and it refuses only negative
    powers below 2."""
    W = Potential(eta, beta, tuple(terms))
    try:
        cert = convexity_certificate(W, radius)
    except DomainError:
        assert any(c < 0.0 and p < 2.0 for c, p in W.terms)
        return
    assert not midpoint_convexity_violated(W, cert)


def test_midpoint_convexity_oracle_sees_a_short_compensation():
    assert midpoint_convexity_violated(Potential(eta=-1.0), ConvexityCertificate(0.5, 0.0, 10.0))
    assert midpoint_convexity_violated(Potential(beta=-0.5), ConvexityCertificate(0.0, 0.25, 10.0))
    assert midpoint_convexity_violated(Potential(terms=((-1.0, 3.0),)), ConvexityCertificate(0.0, 50.0, 10.0))


@st.composite
def _pair_case(draw):
    """Sorted dyadic points (exact under dyadic shifts) with forced ties,
    positive weights summing to 1, and a potential with p in (1, 4]."""
    levels = sorted(draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6, unique=True)))
    reps = draw(st.lists(st.integers(1, 4), min_size=len(levels), max_size=len(levels)))
    h = 2.0 ** -draw(st.integers(0, 8))
    offset = draw(st.integers(-16000, 16000)) / 16.0
    x = offset + h * np.repeat(np.array(levels, dtype=float), reps)
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=x.size, max_size=x.size)))
    power = st.tuples(_coef, st.floats(1.0, 4.0, exclude_min=True))
    terms = tuple(draw(st.lists(power, max_size=2)))
    W = Potential(eta=draw(_coef), beta=draw(_coef), terms=terms)
    shift = draw(st.integers(-16000, 16000)) / 16.0
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=x.size, max_size=x.size)))
    return W, x, raw / raw.sum(), shift, draw(st.integers(1, 40)), v


def _tied_case(W):
    """Two ties, one across a tile boundary at budget 2, and a vector that
    differs across each tie."""
    x = np.array([-0.5, -0.5, 0.25, 1.0, 1.0])
    m = np.array([0.125, 0.25, 0.25, 0.125, 0.25])
    return W, x, m, 3.0, 2, np.array([0.5, -0.5, 0.25, -1.0, 0.75])


@settings(max_examples=300, deadline=None)
@given(_pair_case())
@example(_tied_case(Potential(eta=-0.5, beta=0.25, terms=((0.75, 2.0),))))
@example(_tied_case(Potential(eta=0.5, terms=((1.0, 3.0), (-0.25, 1.5)))))
def test_pair_kernel_matches_dense_reference(case):
    W, x, m, shift, block, v = case
    # a small tile budget sends the power terms through several row panels,
    # each cut into several column tiles
    with mock.patch.object(wgflow.potential, "PAIR_TILE", block):
        energy = pair_energy(W, x, m)
        forces = [pair_force(W, x, m, cone=c) for c in (True, False)]
        both = [pair_energy_force(W, x, m, cone=c) for c in (True, False)]
        shifted = [pair_energy(W, x + shift, m)]
        shifted += [pair_force(W, x + shift, m, cone=c) for c in (True, False)]
        hessian = pair_hessian(W, x, m, v)
        moved_hessian = pair_hessian(W, x + shift, m, v)
    ref_energy, ref_cone, ref_excl = dense_pair_sums(W.eta, W.beta, W.terms, x, m)
    scale = 1.0 + abs(W.eta) + abs(W.beta) + sum(abs(c) for c, _ in W.terms)
    scale *= 1.0 + (x[-1] - x[0]) ** 2
    tol = 1e-11 * scale
    assert abs(energy - ref_energy) <= tol
    assert abs(shifted[0] - energy) <= tol
    for force, ref, moved, (e, f) in zip(forces, (ref_cone, ref_excl), shifted[1:], both):
        assert np.max(np.abs(force - ref)) <= tol
        assert np.max(np.abs(moved - force)) <= tol
        # equal and opposite pair forces: the centre of mass does not move
        assert abs(m @ force) <= tol
        assert abs(e - ref_energy) <= tol
        assert np.max(np.abs(f - ref)) <= tol
    # ties get weight 0: W''(0) for p > 2, and for p < 2 in place of infinity
    ref_hessian, size = dense_pair_hessian(W.beta, W.terms, x, m, v)
    assert np.all(np.abs(hessian - ref_hessian) <= 1e-12 * (1.0 + size))
    assert np.array_equal(moved_hessian, hessian)


@pytest.mark.parametrize("budget", [1, 2, 7, 64, 1000, PAIR_TILE, 32768])
def test_triangle_blocks_tile_rows_within_budget(budget):
    # the tiles of the strict lower triangle
    with mock.patch.object(wgflow.potential, "PAIR_TILE", budget):
        for n in (1, 2, 3, 10, 57, 400) + ((1000,) if budget >= 64 else ()):
            held = np.zeros((n, n), dtype=np.int8)
            for lo, hi, c0, c1 in _lower_tiles(n):
                assert 0 <= lo < hi <= n and 0 <= c0 < c1 <= hi
                assert (hi - lo) * (c1 - c0) <= budget
                held[lo:hi, c0:c1] += 1
            # every pair i > j once, and no pair i <= j more than once
            assert np.all(held[np.tril_indices(n, -1)] == 1) and held.max(initial=1) == 1
            # on strictly decreasing points every gap i > j is negative, so a
            # tile that is not clamped shows it: only the tiles that cross
            # the diagonal (c1 > lo) are
            x = np.sort(np.random.default_rng(n).normal(size=(2, n)), axis=1)[:, ::-1].copy()
            for k, lo, hi, c0, c1, d, _ in _gap_tiles(x):
                gaps = x[k, lo:hi, None] - x[k, None, c0:c1]
                assert np.array_equal(d, np.maximum(gaps, 0.0) if c1 > lo else gaps)


def test_potential_json_round_trip():
    W = Potential(eta=-0.5, beta=1.25, terms=((0.3, 1.5), (0.1, 2.0)))
    assert Potential.from_json_dict(W.to_json_dict()) == W


def test_pair_kernel_on_rows_equals_row_by_row_bits():
    # an array of rows gives each row's energy and forces bit for bit, the
    # whole array in one pass (up to 40 rows of up to 300 points, more than
    # 4,096 values in some cases)
    rng = np.random.default_rng(20261019)
    sizes = []
    potentials = (
        Potential(eta=-0.7, beta=1.3),
        Potential(eta=1.1, beta=-0.4, terms=((0.6, 2.0),)),
        Potential(eta=0.5, beta=0.8, terms=((0.3, 1.5), (0.2, 2.0))),
    )
    for case in range(120):
        n = int(rng.integers(1, 301))
        x = rng.normal(size=(int(rng.integers(1, 41)), n)) * 10.0 ** rng.uniform(-2.0, 2.0)
        if case % 2:
            # ties: values on a coarse lattice, and a run at the start of each row
            x = np.round(4.0 * x) / 4.0
            x[:, : n // 3] = x[:, :1]
        x = np.sort(x, axis=1)
        sizes.append(x.size)
        m = np.full(n, 1.0 / n) if case % 3 else rng.uniform(0.5, 1.5, n)
        m = m / m.sum()
        # the p = 1.5 term takes the blocked per-row pass: keep those rows short
        W = potentials[case % 3] if n <= 120 else potentials[case % 2]
        energies = pair_energy(W, x, m)
        assert np.array_equal(energies, [pair_energy(W, row, m) for row in x])
        for cone in (True, False):
            forces = pair_force(W, x, m, cone=cone)
            assert np.array_equal(forces, [pair_force(W, row, m, cone=cone) for row in x])
            e, f = pair_energy_force(W, x, m, cone=cone)
            assert np.array_equal(e, energies) and np.array_equal(f, forces)
    assert max(sizes) > 4096


@pytest.mark.parametrize("budget", [7, 64, 1000, PAIR_TILE, 32768])
def test_power_kernels_share_a_workspace_without_stale_data(budget):
    # calls at interleaved sizes, exponents and row counts, each with tiles
    # of several sizes, against fresh arrays per tile; p = 1.5 and p = 3 take
    # numpy's square-root and square paths for d ** (p - 1)
    rng = np.random.default_rng(20261020)
    exponents = (1.5, 3.0, 1.25, 1.1398, 2.5)
    with mock.patch.object(wgflow.potential, "PAIR_TILE", budget):
        for case in range(60):
            n = int(rng.integers(1, 90 if budget < 1000 else 500))
            rows = int(rng.integers(1, 4))
            x = np.sort(rng.normal(size=(rows, n)), axis=1)
            if case % 3 == 0:
                x = np.sort(np.round(2.0 * x) / 2.0, axis=1)  # ties
            m = np.full(n, 1.0 / n) if case % 2 else rng.uniform(0.5, 1.5, n)
            m = m / m.sum()
            v = rng.normal(size=n)
            terms = ((float(rng.uniform(0.2, 2.0)), exponents[case % 5]),)
            if case % 4 == 1:
                terms += ((0.5, exponents[(case + 1) % 5]),)
            W = Potential(terms=terms)
            tiles = list(_lower_tiles(n))
            refs = [blocked_power_sums(terms, row, m, tiles) for row in x]
            e, f = pair_energy_force(W, x, m, cone=True)
            assert np.array_equal(e, [r[0] for r in refs])
            assert np.array_equal(f, [r[1] for r in refs])
            assert np.array_equal(pair_energy(W, x, m), e)
            assert np.array_equal(pair_force(W, x[0], m, cone=False), refs[0][1])
            assert pair_energy(W, x[-1], m) == refs[-1][0]
            assert np.array_equal(pair_hessian(W, x[0], m, v), blocked_power_hessian(terms, x[0], m, v, tiles))


def test_power_kernels_hold_one_workspace_and_arrays_of_n():
    # one call holds one workspace of two tile rows, the Hessian's mask of
    # one byte per tile element, and a few arrays of n floats (about eight;
    # twelve leave room for temporaries): no n x n array, no block larger
    # than a tile
    n = 4000
    rng = np.random.default_rng(4000)
    x = np.sort(rng.normal(size=n))
    m = np.full(n, 1.0 / n)
    v = rng.normal(size=n)
    W = Potential(eta=0.5, beta=0.25, terms=((1.0, 1.5),))
    bound = 2 * 8 * PAIR_TILE + PAIR_TILE + 12 * 8 * n
    for call in (lambda: pair_energy_force(W, x, m, cone=False), lambda: pair_hessian(W, x, m, v)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_hessian_weight_of_a_subnormal_gap_is_not_zero():
    # a gap below the smallest normal float is not divided by: it keeps the
    # weight c p (p-1) d**(p-1) of the undivided power, where a tie gives 0
    W = Potential(terms=((1.0, 1.5),))
    m = np.array([0.5, 0.5])
    v = np.array([1.0, -1.0])
    weight = 0.75 * np.sqrt(5e-324)
    h = pair_hessian(W, np.array([0.0, 5e-324]), m, v)
    assert np.allclose(h, [weight, -weight], rtol=1e-15, atol=0.0)
    assert 1e-162 < h[0] < 1e-161
    assert np.array_equal(pair_hessian(W, np.array([0.0, 0.0]), m, v), [0.0, 0.0])
