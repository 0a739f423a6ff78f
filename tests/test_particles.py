"""Particle system: forces, event-driven integration, branch solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgflow import (
    DomainError,
    JkoConfig,
    Measure1D,
    ParticleState,
    Potential,
    integrate,
    nonuniqueness_branches,
    ode_rhs,
    quantile_trajectory,
    run_flow,
    to_quantile_grid,
    w2_quantile,
)
from wgflow import particles
from wgflow.analytic import default_bump_library, metric_derivative_estimate, weak_residual
from wgflow.jko import _trajectory, evi_residual
from wgflow.measures import _row_w2sq
from wgflow.particles import ParticleHistory
from wgflow.particles import interaction_energy as particle_energy
from wgflow.potential import pair_energy

from oracles import reference_integrate

REPULSIVE = Potential(eta=-1.0)
ATTRACTIVE = Potential(eta=1.0)
CUBIC = Potential(terms=((1.0 / 3.0, 3.0),))


def test_state_invariants():
    with pytest.raises(DomainError):
        ParticleState([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        ParticleState([0.0, 1.0], [0.4, 0.5])
    with pytest.raises(DomainError):
        ParticleState([0.0, 1.0], [-0.5, 1.5])
    with pytest.raises(DomainError, match="positions"):
        ParticleState([math.nan, 0.0], [math.nan, 1.0])
    with pytest.raises(DomainError, match="positions"):
        ParticleState([math.inf], [1.0])
    with pytest.raises(DomainError, match="masses"):
        ParticleState([0.0, 1.0], [math.inf, 0.5])


def test_rhs_single_particle():
    assert ode_rhs(ATTRACTIVE, ParticleState([0.3], [1.0]))[0] == 0.0


def test_rhs_attractive_pair():
    st = ParticleState([-0.45, 0.45], [0.5, 0.5])
    assert np.allclose(ode_rhs(ATTRACTIVE, st), [0.5, -0.5])


def test_rhs_coincident_particles_feel_nothing():
    st = ParticleState([1.0, 1.0, 1.0], [0.2, 0.3, 0.5])
    assert np.allclose(ode_rhs(REPULSIVE, st), 0.0)


def test_integrate_rejects_bad_dt():
    with pytest.raises(DomainError):
        integrate(ATTRACTIVE, ParticleState([0.0], [1.0]), 1.0, 0.0)


@pytest.mark.parametrize("t_end, dt, field", [
    (1.0, math.nan, "dt"),
    (1.0, math.inf, "dt"),
    (math.nan, 0.1, "t_end"),
    (math.inf, 0.1, "t_end"),
])
def test_integrate_rejects_non_finite_times(t_end, dt, field):
    with pytest.raises(DomainError, match=field):
        integrate(ATTRACTIVE, ParticleState([0.0, 1.0], [0.5, 0.5]), t_end, dt)


def test_attractive_pair_merges_at_two():
    st = ParticleState([-1.0, 1.0], [0.5, 0.5])
    history = integrate(ATTRACTIVE, st, 3.0, 1e-3)
    merged = next(s for s in history if s.count == 1)
    assert merged.time == pytest.approx(2.0, abs=1e-3)
    assert merged.positions[0] == pytest.approx(0.0, abs=1e-12)
    assert history[-1].count == 1


def test_repulsive_pair_spreads_linearly():
    x0 = 0.25
    st = ParticleState([x0 - 1.0, x0 + 1.0], [0.5, 0.5])
    history = integrate(REPULSIVE, st, 2.0, 1e-2)
    final = history[-1]
    assert np.allclose(final.positions, [x0 - 2.0, x0 + 2.0], atol=1e-12)


def test_zero_potential_is_static():
    st = ParticleState([-1.0, 0.5], [0.5, 0.5])
    history = integrate(Potential(), st, 1.0, 0.1)
    assert np.allclose(history[-1].positions, st.positions)


def test_momentum_conserved():
    rng = np.random.default_rng(83)
    for W in (REPULSIVE, ATTRACTIVE, CUBIC):
        x = np.sort(rng.uniform(-1, 1, 5))
        masses = rng.random(5) + 0.2
        masses /= masses.sum()
        st = ParticleState(x, masses)
        assert abs(st.masses @ ode_rhs(W, st)) <= 1e-12
        history = integrate(W, st, 1.0, 1e-2)
        first = st.masses @ st.positions
        for s in history:
            assert abs(s.masses @ s.positions - first) <= 1e-10 * max(1.0, s.time)


def test_order_preserved_repulsive():
    rng = np.random.default_rng(89)
    x = np.sort(rng.uniform(-1, 1, 6))
    masses = np.full(6, 1 / 6)
    history = integrate(REPULSIVE, ParticleState(x, masses), 2.0, 1e-2)
    assert all(s.count == 6 for s in history)
    for earlier, later in zip(history, history[1:]):
        assert np.all(np.diff(later.positions) >= np.diff(earlier.positions) - 1e-12)


def test_particles_match_quantile_flow_for_smooth_potential():
    W = Potential(beta=1.0)
    n = 24
    init = Measure1D.uniform(-1.0, 1.0)
    grid0 = run_flow(W, init, JkoConfig(tau=1e-3, n=n, t_end=0.5))
    atoms = Measure1D.from_atoms(
        tuple((float(x), 1.0 / n) for x in grid0.state(0).values)
    )
    st = ParticleState([x for x, _ in atoms.atoms], [m for _, m in atoms.atoms])
    history = integrate(W, st, 0.5, 1e-3)
    final_particles = history[-1]
    assert final_particles.count == n
    err = np.max(np.abs(final_particles.positions - grid0.state(-1).values))
    assert err <= 5e-3


def test_energy_monotone_along_integration():
    rng = np.random.default_rng(97)
    for W in (ATTRACTIVE, REPULSIVE, CUBIC):
        x = np.sort(rng.uniform(-1, 1, 5))
        st = ParticleState(x, np.full(5, 0.2))
        history = integrate(W, st, 1.5, 1e-3)
        energies = [particle_energy(W, s) for s in history]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 5e-3 * 1e-3 + 1e-12


def test_three_atom_merge_sequence():
    # first merge at 4/3, second at 5/3
    st = ParticleState([-1.0, 0.0, 1.0], [0.25, 0.25, 0.5])
    history = integrate(ATTRACTIVE, st, 2.0, 1e-4)
    first = next(s for s in history if s.count == 2)
    second = next(s for s in history if s.count == 1)
    assert first.time == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert second.time == pytest.approx(5.0 / 3.0, abs=1e-4)
    # total collapse lands on the center of mass
    assert second.positions[0] == pytest.approx(0.25, abs=1e-10)


def test_simultaneous_symmetric_collapse():
    st = ParticleState([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    history = integrate(ATTRACTIVE, st, 2.0, 1e-3)
    merged = next(s for s in history if s.count == 1)
    # outer particles close on the stationary center at speed 2/3
    assert merged.time == pytest.approx(1.5, abs=1e-3)
    assert merged.positions[0] == pytest.approx(0.0, abs=1e-12)


def test_coincident_repulsive_particles_stay_together():
    st = ParticleState([0.0, 0.0], [0.5, 0.5])
    history = integrate(REPULSIVE, st, 1.0, 1e-2)
    final = history[-1]
    assert final.count == 2
    assert np.allclose(final.positions, 0.0)


def test_branches_at_zero_time_coincide():
    for branch in nonuniqueness_branches(0.7, 0.0):
        assert np.allclose(branch.positions, 0.7)


def test_branch_examples():
    pair = nonuniqueness_branches(0.0, 2.0)[1]
    assert np.allclose(pair.positions, [-1.0, 1.0])
    assert np.allclose(pair.masses, [0.5, 0.5])
    triple = nonuniqueness_branches(0.0, 3.0)[2]
    assert np.allclose(triple.positions, [-2.0, 0.0, 2.0])
    assert np.allclose(triple.masses, [1 / 3, 1 / 3, 1 / 3])


def test_branches_satisfy_ode():
    h = 1e-6
    for t in (0.5, 1.5, 2.5):
        now = nonuniqueness_branches(0.0, t)
        later = nonuniqueness_branches(0.0, t + h)
        for st_now, st_later in zip(now, later):
            velocity = (st_later.positions - st_now.positions) / h
            assert np.allclose(velocity, ode_rhs(REPULSIVE, st_now), atol=1e-6)


def test_branch_energies_ordered():
    t = 1.0
    stationary, pair, triple, _ = nonuniqueness_branches(0.0, t)
    e_pair = particle_energy(REPULSIVE, pair)
    e_triple = particle_energy(REPULSIVE, triple)
    e_stationary = particle_energy(REPULSIVE, stationary)
    assert e_stationary == 0.0
    assert e_pair == pytest.approx(-t / 4.0, abs=1e-15)
    assert e_triple == pytest.approx(-8.0 * t / 27.0, abs=1e-14)
    assert -1.0 / 3.0 < e_triple < e_pair < e_stationary


def test_contact_takes_in_coincident_neighbours():
    # a run of six coincident particles meets a coincident pair: all eight
    # merge, where merging only the two facing particles broke the order
    st = ParticleState([0.25, 0.625] + [1.0] * 6 + [1.375] * 2, [1 / 64] * 9 + [55 / 64])
    history = integrate(ATTRACTIVE, st, 2.0, 0.05)
    assert sorted({s.count for s in history}, reverse=True) == [10, 3, 2, 1]


def test_history_is_a_read_only_sequence_of_states():
    st = ParticleState([-1.0, 0.0, 1.0], [0.25, 0.25, 0.5])
    history = integrate(ATTRACTIVE, st, 2.0, 0.1)
    assert isinstance(history, ParticleHistory)
    states = list(history)
    assert len(states) == len(history) == history.times.size
    assert [s.count for s in states] == [s.count for s in history[:]]
    assert len(history.segments) == 3  # two merges
    last = history[-1]
    assert last.count == 1 and last.time == history.times[-1]
    assert history[len(history) - 1].positions.tobytes() == last.positions.tobytes()
    with pytest.raises(IndexError):
        history[len(history)]
    with pytest.raises(ValueError):
        history.times[0] = 1.0
    with pytest.raises(ValueError):
        history.segments[0][1][0, 0] = 1.0


def test_quantile_trajectory_adapter():
    st = ParticleState([-1.0, 1.0], [0.5, 0.5])
    history = integrate(ATTRACTIVE, st, 1.0, 1e-2)
    traj = quantile_trajectory(ATTRACTIVE, history, 16)
    assert traj.grid_size == 16
    assert traj.grids.shape[0] == len(history)
    assert w2_quantile(traj.state(0), traj.state(0)) == 0.0


@st.composite
def _particle_state(draw, coincident: bool):
    """Sorted particles in [-4, 4]: distinct positions with arbitrary masses,
    or positions with repeats and dyadic masses, whose every sum is exact."""
    size = draw(st.integers(1, 10))
    if coincident:
        steps = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
        x = draw(st.floats(-1.0, 1.0)) + 0.375 * np.array(steps)
        cuts = draw(st.lists(st.integers(1, 63), min_size=size - 1, max_size=size - 1, unique=True))
        m = np.diff([0, *sorted(cuts), 64]) / 64.0
    else:
        x = draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size, unique=True))
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)))
        m = w / w.sum()
    return ParticleState(np.sort(x), m)


_STATES = _particle_state(coincident=False) | _particle_state(coincident=True)


def _one_record(state):
    """The history of ``state`` alone."""
    return ParticleHistory(np.array([state.time]), [(state.masses, state.positions[None])])


def _assert_rows_are_measure_grids(history, n):
    """Every row of the adapter equals, bit for bit, the grid of the state's
    measure through ``quantile_pieces``."""
    got = quantile_trajectory(ATTRACTIVE, history, n).grids
    for row, state in zip(got, history):
        measure = Measure1D.from_atoms(zip(state.positions, state.masses))
        assert row.tobytes() == to_quantile_grid(measure, n).values.tobytes()


@settings(max_examples=300, deadline=None)
@given(_STATES, st.integers(1, 64))
def test_quantile_trajectory_rows_match_measure_grids(state, n):
    _assert_rows_are_measure_grids(_one_record(state), n)


@settings(max_examples=60, deadline=None)
@given(_STATES, st.sampled_from([-1.0, 1.0]), st.integers(1, 64))
def test_quantile_trajectory_of_integrated_histories(state, eta, n):
    # attraction merges colliding particles; repulsion keeps coincident ones
    # together
    _assert_rows_are_measure_grids(integrate(Potential(eta=eta), state, 2.0, 0.05), n)


def _assert_reader_matches_dense(W, history, n):
    """The trajectory that reads its rows off ``history`` a block at a time
    gives, bit for bit, what the same grids held as one array and read
    through slices give, and what whole-array passes over them give."""
    traj = quantile_trajectory(W, history, n)
    grids = traj.grids
    dense = _trajectory(W, history.times, lambda lo, hi: grids[lo:hi], n)
    m = np.full(n, 1.0 / n)
    assert np.array_equal(traj.energies, dense.energies)
    assert np.array_equal(traj.energies, pair_energy(W, grids, m))
    assert np.array_equal(traj.step_costs, dense.step_costs)
    for k in (0, len(history) - 1):
        assert traj.state(k) == dense.state(k)
    sigma = to_quantile_grid(Measure1D.uniform(-2.0, 2.0), n)
    assert np.array_equal(evi_residual(W, traj, sigma), evi_residual(W, dense, sigma))
    bumps = default_bump_library((-5.0, 5.0), (0.1, 1.9))
    assert float(weak_residual(traj, W, bumps)).hex() == float(weak_residual(dense, W, bumps)).hex()
    if len(history) > 1:
        speeds = metric_derivative_estimate(traj)
        assert np.array_equal(speeds, metric_derivative_estimate(dense))
        assert np.array_equal(speeds, np.sqrt(_row_w2sq(grids[:-1], grids[1:])) / np.diff(history.times))


# 1 and 7 nodes fit all records in one row block, 64 and 300 make blocks that
# end inside segments, and a row of 4097 is longer than a block by itself
_READER_SIZES = st.sampled_from([1, 7, 64, 300, 4097])


@settings(max_examples=40, deadline=None)
@given(_STATES, st.sampled_from([-1.0, 1.0]), _READER_SIZES)
def test_quantile_trajectory_reader_matches_dense_grids(state, eta, n):
    # attraction merges colliding particles, repulsion keeps coincident ones
    history = integrate(Potential(eta=eta), state, 2.0, 0.02)
    _assert_reader_matches_dense(Potential(eta=eta, beta=0.5), history, n)


@settings(max_examples=20, deadline=None)
@given(_STATES, _READER_SIZES)
def test_quantile_trajectory_reader_of_one_record(state, n):
    _assert_reader_matches_dense(ATTRACTIVE, _one_record(state), n)


def _assert_same_history(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.float64(a.time).tobytes() == np.float64(b.time).tobytes()
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.masses.tobytes() == b.masses.tobytes()


def _assert_matches_reference(W, state, t_end, dt):
    try:
        want = reference_integrate(W, state, t_end, dt)
    except (RuntimeError, DomainError) as exc:
        with pytest.raises(type(exc)):
            integrate(W, state, t_end, dt)
        return
    _assert_same_history(integrate(W, state, t_end, dt), want)


@settings(max_examples=150, deadline=None)
@given(
    _STATES,
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0]),
    st.floats(0.1, 2.0),
    st.floats(0.005, 0.3),
)
def test_cusp_chunks_match_the_euler_loop(state, eta, t_end, dt):
    # a cusp alone moves the particles in chunks of summed substeps
    _assert_matches_reference(Potential(eta=eta), state, t_end, dt)


@settings(max_examples=40, deadline=None)
@given(
    _STATES,
    st.sampled_from([CUBIC, Potential(eta=1.0, beta=0.5), Potential(eta=-1.0, beta=1.0)]),
    st.floats(0.1, 1.0),
    st.floats(0.01, 0.1),
)
def test_one_substep_chunks_match_the_euler_loop(state, W, t_end, dt):
    _assert_matches_reference(W, state, t_end, dt)


def test_ode_rhs_runs_once_per_chunk(monkeypatch):
    # the particles_ot benchmark configuration: five particles collapse to
    # one, and each chunk ends at a merge or at t_end
    st = ParticleState([-2.7, -1.0, 0.0, 1.0, 2.7], [0.2] * 5)
    calls = []
    rhs = particles.ode_rhs

    def counted(W, state):
        calls.append(state.time)
        return rhs(W, state)

    monkeypatch.setattr(particles, "ode_rhs", counted)
    want = reference_integrate(ATTRACTIVE, st, 4.0, 1e-3)
    assert len(calls) == len(want) - 1 == 4001
    calls.clear()
    history = integrate(ATTRACTIVE, st, 4.0, 1e-3)
    assert len(calls) == len(history.segments) == 3
    _assert_same_history(history, want)


@pytest.mark.parametrize("eta", [-1.0, -2.0, 0.0])
def test_stationary_negative_zero_matches_the_euler_loop(eta):
    # the middle particle stays put at -0.0 while its velocity's zero flips
    # sign with the rounding of the centre of mass
    st = ParticleState([-3.0, -1.0, -0.0, 1.0, 3.0], [0.2] * 5)
    _assert_matches_reference(Potential(eta=eta), st, 1.0, 0.01)
