"""Potential evaluation, energies, force fields, and the cone calculus."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    velocity_field,
    velocity_profile,
)
from oracles import central_difference, dense_pair_hessian, dense_pair_sums
from wgflow.potential import pair_energy, pair_force, pair_hessian

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
    for i in range(16):
        assert velocity_field(CUSP_REPULSIVE, g_dirac, i) == 0.0
    t = 1.3
    g = to_quantile_grid(Measure1D.uniform(-t, t), 500)
    for i in (50, 250, 449):
        x = g.values[i]
        assert velocity_field(CUSP_REPULSIVE, g, i) == pytest.approx(
            x / t, abs=5.0 / 500
        )
    pair = QuantileGrid([-0.4, 0.4])
    assert velocity_field(CUSP_ATTRACTIVE, pair, 0) == pytest.approx(0.5)
    assert velocity_field(CUSP_ATTRACTIVE, pair, 1) == pytest.approx(-0.5)


def test_velocity_profile_matches_pointwise():
    rng = np.random.default_rng(43)
    W = Potential(eta=-0.5, beta=0.3, terms=((0.2, 1.8),))
    g = _random_increasing(rng, 20)
    prof = velocity_profile(W, g)
    for i in range(g.n):
        assert prof[i] == pytest.approx(velocity_field(W, g, i), abs=1e-14)


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


@st.composite
def _pair_case(draw):
    """Sorted dyadic points (exact under dyadic shifts) with forced ties,
    positive weights summing to 1, and a potential with p in (1, 2]."""
    levels = sorted(draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6, unique=True)))
    reps = draw(st.lists(st.integers(1, 4), min_size=len(levels), max_size=len(levels)))
    h = 2.0 ** -draw(st.integers(0, 8))
    offset = draw(st.integers(-16000, 16000)) / 16.0
    x = offset + h * np.repeat(np.array(levels, dtype=float), reps)
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=x.size, max_size=x.size)))
    power = st.tuples(_coef, st.floats(1.0, 2.0, exclude_min=True))
    terms = tuple(draw(st.lists(power, max_size=2)))
    W = Potential(eta=draw(_coef), beta=draw(_coef), terms=terms)
    shift = draw(st.integers(-16000, 16000)) / 16.0
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=x.size, max_size=x.size)))
    return W, x, raw / raw.sum(), shift, draw(st.integers(1, 40)), v


@settings(max_examples=300, deadline=None)
@given(_pair_case())
def test_pair_kernel_matches_dense_reference(case):
    W, x, m, shift, block, v = case
    # a small block budget sends the power terms through the multi-block path
    with mock.patch.object(wgflow.potential, "PAIR_BLOCK", block):
        energy = pair_energy(W, x, m)
        forces = [pair_force(W, x, m, cone=c) for c in (True, False)]
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
    for force, ref, moved in zip(forces, (ref_cone, ref_excl), shifted[1:]):
        assert np.max(np.abs(force - ref)) <= tol
        assert np.max(np.abs(moved - force)) <= tol
        # equal and opposite pair forces: the centre of mass does not move
        assert abs(m @ force) <= tol
    # ties, with W''(0) infinite for p < 2, get weight 0
    ref_hessian, size = dense_pair_hessian(W.beta, W.terms, x, m, v)
    assert np.all(np.abs(hessian - ref_hessian) <= 1e-12 * (1.0 + size))
    assert np.array_equal(moved_hessian, hessian)


def test_potential_json_round_trip():
    W = Potential(eta=-0.5, beta=1.25, terms=((0.3, 1.5), (0.1, 2.0)))
    assert Potential.from_json_dict(W.to_json_dict()) == W
