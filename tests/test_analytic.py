"""Reference solutions, collapse times, weak residuals, metric derivatives."""

import numpy as np
import pytest

from wgflow import (
    DomainError,
    ExactSolution,
    JkoConfig,
    KIND_ATTRACTIVE,
    KIND_REPULSIVE,
    Measure1D,
    ParticleState,
    Potential,
    collapse_time,
    default_bump_library,
    exact_grid,
    exact_measure,
    exact_quantile,
    integrate,
    interaction_energy,
    metric_derivative_estimate,
    quantile,
    run_flow,
    w2_quantile,
    weak_residual,
)

REPULSIVE = Potential(eta=-1.0)
ATTRACTIVE = Potential(eta=1.0)


def _pair(x1, x2):
    return Measure1D(atoms=((x1, 0.5), (x2, 0.5)))


def test_solution_validation():
    with pytest.raises(DomainError):
        ExactSolution("nonsense", Measure1D.dirac(0.0), 1.0)
    with pytest.raises(DomainError):
        ExactSolution(KIND_REPULSIVE, Measure1D.dirac(0.0), 0.0)


@pytest.mark.parametrize("kind", [KIND_REPULSIVE, KIND_ATTRACTIVE])
def test_exact_readers_refuse_negative_time(kind):
    sol = ExactSolution(kind, _pair(-1.0, 1.0), 1.0)
    for read in (
        lambda: exact_quantile(sol, -0.5, 0.5),
        lambda: exact_grid(sol, -0.5, 4),
        lambda: exact_measure(sol, -0.5),
    ):
        with pytest.raises(DomainError, match="nonnegative"):
            read()


def test_repulsive_dirac_block():
    x0 = 0.4
    sol = ExactSolution(KIND_REPULSIVE, Measure1D.dirac(x0), 1.0)
    for t in (0.5, 1.0, 2.0):
        for z in (0.1, 0.5, 0.9):
            assert exact_quantile(sol, t, z) == pytest.approx(
                x0 + t * (2 * z - 1), abs=1e-14
            )
        m = exact_measure(sol, t)
        assert m.pieces == ((x0 - t, x0 + t, 1.0),)


def test_repulsive_three_dirac_blocks():
    x1, x2, x3 = -1.0, 0.0, 2.0
    init = Measure1D(atoms=((x1, 0.25), (x2, 0.25), (x3, 0.5)))
    sol = ExactSolution(KIND_REPULSIVE, init, 1.0)
    t = 1.0
    m = exact_measure(sol, t)
    expected = (
        (x1 - t, x1 - t / 2, 0.25),
        (x2 - t / 2, x2, 0.25),
        (x3, x3 + t, 0.5),
    )
    assert len(m.pieces) == 3
    for got, want in zip(m.pieces, expected):
        assert got == pytest.approx(want, abs=1e-14)


def test_attractive_pair_collapse_values():
    sol = ExactSolution(KIND_ATTRACTIVE, _pair(-1.0, 1.0), 1.0)
    assert exact_quantile(sol, 1.0, 0.25) == pytest.approx(-0.5, abs=1e-14)
    assert exact_quantile(sol, 1.0, 0.75) == pytest.approx(0.5, abs=1e-14)
    for z in (0.1, 0.5, 0.9):
        assert exact_quantile(sol, 2.0, z) == pytest.approx(0.0, abs=1e-12)
        assert exact_quantile(sol, 3.5, z) == pytest.approx(0.0, abs=1e-12)


def test_collapse_time_examples():
    assert collapse_time(
        ExactSolution(KIND_ATTRACTIVE, _pair(-1.0, 1.0), 1.0)
    ) == pytest.approx(2.0, abs=1e-9)
    assert collapse_time(
        ExactSolution(KIND_ATTRACTIVE, Measure1D.dirac(0.0), 1.0)
    ) == 0.0
    assert collapse_time(
        ExactSolution(KIND_ATTRACTIVE, Measure1D.uniform(-1, 1), 1.0)
    ) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        collapse_time(ExactSolution(KIND_REPULSIVE, Measure1D.dirac(0.0), 1.0))


def test_collapse_time_scales_with_eta():
    sol = ExactSolution(KIND_ATTRACTIVE, _pair(-1.0, 1.0), 2.0)
    assert collapse_time(sol) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "init, expected",
    [
        # the widest gap is the s -> 1 limit: top of the upper uniform minus the mean
        (
            Measure1D(
                pieces=(
                    (2.4272624675892054, 3.9512968268721256, 0.34415069753877564),
                    (1.245360315040477, 1.694855272440022, 0.6558493024612243),
                )
            ),
            1.8895348405641195,
        ),
        # at the junction s = 1/2 of two rising pieces: means 0.5 and 3.5
        (Measure1D(pieces=((0.0, 1.0, 0.5), (3.0, 4.0, 0.5))), 3.0),
        # inside the rising piece, at s = 1/2: means 0.5 and 3.5, while the
        # junctions s = 1/4 and 3/4 give 8/3
        (Measure1D(atoms=((0.0, 0.25), (4.0, 0.25)), pieces=((0.0, 4.0, 0.5),)), 3.0),
    ],
    ids=["upper_limit", "junction", "interior"],
)
def test_collapse_time_pinned_values(init, expected):
    assert collapse_time(ExactSolution(KIND_ATTRACTIVE, init, 1.0)) == expected


def test_collapse_time_brackets_the_projection_collapse():
    """Just after the closed-form time the isotonic projection is one value,
    just before it is not; the projection is computed independently of the
    closed form."""
    from oracles import random_measure

    from wgflow.analytic import _end_value, _structure

    def collapsed(sol, t):
        structure = _structure(sol, t)
        return _end_value(structure[-1]) <= structure[0][2]

    rng = np.random.default_rng(3131)
    for _ in range(400):
        sol = ExactSolution(KIND_ATTRACTIVE, random_measure(rng), float(rng.uniform(0.3, 2.5)))
        t_star = collapse_time(sol)
        margin = 1e-9 * max(1.0, t_star)
        assert collapsed(sol, t_star + margin)
        assert t_star == 0.0 or not collapsed(sol, t_star - margin)


def _pool_count_drop_time(sol, below, t_hi, tol=1e-10):
    """First time the pooled structure has fewer than ``below`` blocks."""
    from wgflow.analytic import _structure

    lo, hi = 0.0, t_hi
    assert len(_structure(sol, hi)) < below
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if len(_structure(sol, mid)) < below:
            hi = mid
        else:
            lo = mid
    return hi


def test_collapse_time_matches_particle_merges():
    initial = ((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))
    sol = ExactSolution(KIND_ATTRACTIVE, Measure1D(atoms=initial), 1.0)
    t_star = collapse_time(sol)
    dt = 1e-4
    history = integrate(
        ATTRACTIVE, ParticleState([x for x, _ in initial], [m for _, m in initial]), 2.0, dt
    )
    first_merge = next(s for s in history if s.count == 2)
    final_merge = next(s for s in history if s.count == 1)
    assert final_merge.time == pytest.approx(t_star, abs=2 * dt)
    # the intermediate merge also happens at the pooled-crossing time
    t_first = _pool_count_drop_time(sol, below=3, t_hi=t_star)
    assert first_merge.time == pytest.approx(t_first, abs=2 * dt)


def test_random_atomic_collapse_times_match_particles():
    rng = np.random.default_rng(9090)
    dt = 2e-4
    for _ in range(10):
        count = int(rng.integers(2, 6))
        positions = np.sort(rng.uniform(-1.5, 1.5, count))
        positions += np.arange(count) * 0.05  # keep them distinct
        masses = rng.random(count) + 0.2
        masses /= masses.sum()
        init = Measure1D(atoms=tuple(zip(positions, masses)))
        sol = ExactSolution(KIND_ATTRACTIVE, init, 1.0)
        t_star = collapse_time(sol)
        history = integrate(
            ATTRACTIVE, ParticleState(positions, masses), t_star + 0.5, dt
        )
        final_merge = next(s for s in history if s.count == 1)
        assert final_merge.time == pytest.approx(t_star, abs=2 * dt)
        center = float(masses @ positions)
        assert final_merge.positions[0] == pytest.approx(center, abs=1e-9)


def test_partial_pooling_atom_next_to_wide_uniform():
    # the atom's pool grows into the still-rising uniform stretch; mass and
    # mean are conserved and the result stays monotone
    init = Measure1D(atoms=((0.0, 0.5),), pieces=((1.0, 21.0, 0.5),))
    sol = ExactSolution(KIND_ATTRACTIVE, init, 1.0)
    for t in (3.0, 6.0, 10.0):
        zs = np.linspace(0.01, 0.99, 97)
        vals = np.array([exact_quantile(sol, t, z) for z in zs])
        assert np.all(np.diff(vals) >= -1e-12)
        m = exact_measure(sol, t)
        assert m.mean() == pytest.approx(init.mean(), abs=1e-9)
    assert collapse_time(sol) > 0


def _sampled_pava_reference(sol, t, samples):
    """Dense unweighted PAVA of the pre-projection function; independent of
    the closed-form pooled structure."""
    from wgflow.analytic import _transported_pieces

    zs = (np.arange(samples) + 0.5) / samples
    pieces = _transported_pieces(sol, t)
    f = np.empty(samples)
    idx = 0
    for k, z in enumerate(zs):
        while idx + 1 < len(pieces) and pieces[idx][1] <= z:
            idx += 1
        s0, _, x0, b = pieces[idx]
        f[k] = x0 + b * (z - s0)
    means, counts = [], []
    for v in f:
        means.append(v)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            means[-1] = (counts[-1] * means[-1] + c2 * m2) / (counts[-1] + c2)
            counts[-1] += c2
    return zs, np.repeat(means, counts)


def test_pooled_structure_matches_sampled_pava():
    from oracles import random_measure

    rng = np.random.default_rng(654)
    samples = 4001
    for _ in range(25):
        m = random_measure(rng)
        sol = ExactSolution(KIND_ATTRACTIVE, m, float(rng.uniform(0.3, 2.5)))
        t = float(rng.uniform(0.0, 4.0))
        zs, reference = _sampled_pava_reference(sol, t, samples)
        sub = slice(10, samples - 10, 67)
        ours = np.array([exact_quantile(sol, t, float(z)) for z in zs[sub]])
        # the reference carries O(1/samples) resolution error
        assert np.max(np.abs(ours - reference[sub])) <= 30.0 / samples


def _assert_isotonic_optimality(sol, t):
    from oracles import isotonic_kkt_defect

    from wgflow.analytic import _transported_pieces

    pieces = _transported_pieces(sol, t)
    x_max = max(max(abs(x0), abs(x0 + b * (s1 - s0))) for s0, s1, x0, b in pieces)
    assert isotonic_kkt_defect(sol, t) <= 1e-12 * (1.0 + x_max)


def test_pooled_structure_meets_isotonic_optimality():
    """The closed-form structure meets the projection's optimality
    conditions to rounding, not to a sampling resolution."""
    from oracles import random_measure

    rng = np.random.default_rng(2468)
    for _ in range(200):
        sol = ExactSolution(KIND_ATTRACTIVE, random_measure(rng), float(rng.uniform(0.3, 2.5)))
        _assert_isotonic_optimality(sol, float(rng.uniform(0.0, 4.0)))


def _tiny_pool_measure(rng, k):
    """A tiny atom at a segment's right end (k % 3 == 0), at its left end
    (k % 3 == 1), or where two segments meet (k % 3 == 2)."""
    eps = float(10.0 ** rng.uniform(-10.0, -4.0))
    left = float(rng.uniform(-1.0, 1.0))
    right = left + float(rng.uniform(0.5, 2.0))
    if k % 3 == 0:
        return Measure1D(atoms=((right, eps),), pieces=((left, right, 1.0 - eps),))
    if k % 3 == 1:
        return Measure1D(atoms=((left, eps),), pieces=((left, right, 1.0 - eps),))
    share = float(rng.uniform(0.2, 0.8))
    second = (right, right + float(rng.uniform(0.5, 2.0)), (1.0 - share) * (1.0 - eps))
    return Measure1D(atoms=((right, eps),), pieces=((left, right, share * (1.0 - eps)), second))


def test_tiny_pool_at_a_segment_end_meets_isotonic_optimality():
    """A tiny atom at a segment's right end, at its left end, or where two
    segments meet pools with a short stretch of a long rising piece.  At the
    right end the pool's span at its value is far smaller than at the knot
    below it, where the span's growth rate is negative."""
    rng = np.random.default_rng(1357)
    for k in range(150):
        m = _tiny_pool_measure(rng, k)
        sol = ExactSolution(KIND_ATTRACTIVE, m, float(rng.uniform(0.3, 2.5)))
        _assert_isotonic_optimality(sol, float(rng.uniform(0.0, 0.5)))


def _many_atoms_then_heavy(rng):
    """A few hundred nearly evenly spaced light atoms on [0, 1], every eighth
    replaced by a segment steep enough to stay rising, then one heavy atom
    just above 1, with ``eta * t`` at which the light part barely stays apart.
    Returns the measure and that ``eta * t``."""
    n = int(rng.integers(200, 400))
    heavy = float(rng.uniform(0.3, 0.5))
    xs = (np.arange(n) + rng.uniform(0.0, 0.3, n)) / n
    w = rng.uniform(0.9, 1.1, n)
    w *= (1.0 - heavy) / w.sum()
    atoms, pieces = [], []
    for j in range(n):
        if j % 8 == 5:
            pieces.append((float(xs[j]), float(xs[j] + rng.uniform(1.5, 3.0) / n), float(w[j])))
        else:
            atoms.append((float(xs[j]), float(w[j])))
    atoms.append((float(1.0 + rng.uniform(0.0, 0.05)), heavy))
    eta_t = float(rng.uniform(0.8, 0.95)) / (2.0 * (1.0 - heavy))
    return Measure1D(atoms=tuple(atoms), pieces=tuple(pieces)), eta_t


def test_structure_matches_rescan_reference_bits():
    """The one stack pass, which rechecks only the junctions beside its last
    change, gives the projection of the whole-stack rescan bit for bit: on
    random measures, on tiny pools at segment ends, and on a few hundred
    atoms of which the last pushed one pools across most of the stack."""
    from oracles import random_measure, reference_isotonic_pieces

    from wgflow.analytic import _isotonic_pieces, _structure, _transported_pieces

    def check(sol, t):
        got = _structure(sol, t)
        assert repr(got) == repr(reference_isotonic_pieces(_transported_pieces(sol, t)))
        return got

    rng = np.random.default_rng(4242)
    for _ in range(2000):
        sol = ExactSolution(KIND_ATTRACTIVE, random_measure(rng), float(rng.uniform(0.3, 2.5)))
        check(sol, float(rng.uniform(0.0, 4.0)))
    for k in range(300):
        sol = ExactSolution(KIND_ATTRACTIVE, _tiny_pool_measure(rng, k), float(rng.uniform(0.3, 2.5)))
        check(sol, float(rng.uniform(0.0, 0.5)))
    for _ in range(12):
        m, eta_t = _many_atoms_then_heavy(rng)
        eta = float(rng.uniform(0.3, 2.5))
        sol = ExactSolution(KIND_ATTRACTIVE, m, eta)
        got = check(sol, eta_t / eta)
        before = _isotonic_pieces(_transported_pieces(sol, eta_t / eta)[:-1])
        assert len(before) >= 80 and any(el[3] > 0.0 for el in before)
        assert len(got) <= len(before) // 3


def test_steep_segment_beside_heavy_atoms_ends_and_meets_optimality():
    """A segment of tiny mass beside one or two heavy atoms, so of slope b
    near 1e5 or more in the quantile.  A refit leaves what is left of the
    segment continuous with the pool only to about b/2 ulp of a level, over
    the 1e-12 tolerance of the value check; the pass must still end, and the
    projection meets its optimality conditions within that rounding.  The
    first measure is atoms (0, 0.5) and (1, 0.5 - 1e-5) around [0, 1]."""
    from oracles import isotonic_kkt_defect

    from wgflow.analytic import _transported_pieces

    rng = np.random.default_rng(9753)
    cases = [(0.0, 1.0, 1e-5, 0.5, 0)] * 40
    for k in range(240):
        x, width = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
        cases.append((x, width, float(10.0 ** rng.uniform(-9.0, -5.0)), float(rng.uniform(0.3, 0.7)), k % 3))
    for x, width, mass, heavy, where in cases:
        segment = ((x, x + width, mass),)
        if where == 0:
            atoms = ((x, heavy), (x + width, 1.0 - heavy - mass))
        else:
            atoms = ((x + width if where == 1 else x, 1.0 - mass),)
        sol = ExactSolution(KIND_ATTRACTIVE, Measure1D(atoms=atoms, pieces=segment), float(rng.uniform(0.3, 2.5)))
        t = float(rng.uniform(0.0, 1.0))
        pieces = _transported_pieces(sol, t)
        x_max = max(max(abs(x0), abs(x0 + b * (s1 - s0))) for s0, s1, x0, b in pieces)
        b_max = max(b for *_, b in pieces)
        assert b_max >= 5e4
        assert isotonic_kkt_defect(sol, t) <= 1e-12 * (1.0 + x_max) + b_max * 2.0**-53


# exact_grid(sol, t, 8) for PINNED_SOLUTION, as float.hex; the times reach
# pooling of two pools, a pool swallowing a whole neighbour on either side,
# and fits of a pool against a rising piece on one side and on both
PINNED_SOLUTION = ExactSolution(
    KIND_ATTRACTIVE,
    Measure1D(
        atoms=((-1.0, 0.2), (0.5, 0.15), (2.0, 0.1)),
        pieces=((-2.0, -1.2, 0.2), (-0.5, 0.3, 0.15), (1.0, 3.0, 0.2)),
    ),
    1.0,
)
PINNED_GRIDS = {
    0.5: (
        "-0x1.5000000000000p+0", "-0x1.e000000000000p-1",
        "-0x1.9999999999999p-1", "-0x1.e66666666666cp-3",
        "0x1.7ffffffffffffp-2", "0x1.7ffffffffffffp-2",
        "0x1.a666666666666p+0", "0x1.f000000000000p+0",
    ),
    1.9: (
        "-0x1.47ae147ae147ep-3", "-0x1.47ae147ae147ep-3",
        "-0x1.47ae147ae147ep-3", "-0x1.000000000000dp-4",
        "0x1.2c85fbdeebcbcp-5", "0x1.2c85fbdeebcbcp-5",
        "0x1.570a3d70a3d70p-1", "0x1.6ccccccccccccp-1",
    ),
    2.3: (
        "0x1.0d2a6c405d9e1p-5", "0x1.0d2a6c405d9e1p-5",
        "0x1.0d2a6c405d9e1p-5", "0x1.0d2a6c405d9e1p-5",
        "0x1.0d2a6c405d9e1p-5", "0x1.0d2a6c405d9e1p-5",
        "0x1.8f5c28f5c28f5p-2", "0x1.8f5c28f5c28f5p-2",
    ),
    2.5: (
        "0x1.776d546126702p-4", "0x1.776d546126702p-4",
        "0x1.776d546126702p-4", "0x1.776d546126702p-4",
        "0x1.776d546126702p-4", "0x1.776d546126702p-4",
        "0x1.ffffffffffffap-3", "0x1.ffffffffffffap-3",
    ),
    2.9: (
        "0x1.1eb851eb851e8p-3", "0x1.1eb851eb851e8p-3",
        "0x1.1eb851eb851e8p-3", "0x1.1eb851eb851e8p-3",
        "0x1.1eb851eb851e8p-3", "0x1.1eb851eb851e8p-3",
        "0x1.1eb851eb851e8p-3", "0x1.1eb851eb851e8p-3",
    ),
}


@pytest.mark.parametrize("t", sorted(PINNED_GRIDS))
def test_exact_grid_pinned_bits(t):
    got = [float(v).hex() for v in exact_grid(PINNED_SOLUTION, t, 8).values]
    assert got == list(PINNED_GRIDS[t])


def test_time_reversal_duality():
    for init in (
        Measure1D.uniform(-1.0, 1.0),
        _pair(-0.5, 1.0),
        Measure1D(atoms=((0.0, 0.5),), pieces=((0.5, 1.5, 0.5),)),
    ):
        t = 0.75
        spread = exact_measure(ExactSolution(KIND_REPULSIVE, init, 1.0), t)
        back = ExactSolution(KIND_ATTRACTIVE, spread, 1.0)
        for z in np.linspace(0.05, 0.95, 19):
            assert exact_quantile(back, t, z) == pytest.approx(
                quantile(init, z), abs=1e-10
            )


def test_energy_along_exact_repulsive_flow():
    sol = ExactSolution(KIND_REPULSIVE, Measure1D.dirac(0.0), 1.0)
    for t in (0.5, 1.0, 2.0):
        g = exact_grid(sol, t, 400)
        assert interaction_energy(REPULSIVE, g) == pytest.approx(-t / 3.0, abs=2e-3)


def test_oracle_vs_jko_all_initial_conditions():
    inits = (
        Measure1D.dirac(0.0),
        _pair(-1.0, 1.0),
        Measure1D(atoms=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
    )
    for W, kind in ((REPULSIVE, KIND_REPULSIVE), (ATTRACTIVE, KIND_ATTRACTIVE)):
        for init in inits:
            cfg = JkoConfig(tau=2e-3, n=80, t_end=1.0)
            traj = run_flow(W, init, cfg)
            sol = ExactSolution(kind, init, 1.0)
            worst = max(
                w2_quantile(traj.state(k), exact_grid(sol, float(t), cfg.n))
                for k, t in enumerate(traj.times)
            )
            assert worst <= 30 * cfg.tau


def test_oracle_vs_jko_error_stable_under_halving():
    init = _pair(-1.0, 1.0)
    sol = ExactSolution(KIND_ATTRACTIVE, init, 1.0)
    errs = []
    for tau in (4e-3, 2e-3):
        cfg = JkoConfig(tau=tau, n=80, t_end=1.0)
        traj = run_flow(ATTRACTIVE, init, cfg)
        worst = max(
            w2_quantile(traj.state(k), exact_grid(sol, float(t), cfg.n))
            for k, t in enumerate(traj.times)
        )
        errs.append(worst / tau)
    # the constant in the O(tau) bound does not blow up under halving
    assert errs[1] <= 3 * errs[0] + 1e-9


def test_metric_derivative_stationary():
    cfg = JkoConfig(tau=1e-2, n=20, t_end=0.1)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    frozen = type(traj)(
        traj.times,
        np.repeat(traj.grids[:1], traj.times.size, axis=0),
        np.full(traj.times.size, traj.energies[0]),
        np.zeros(traj.times.size - 1),
    )
    assert np.allclose(metric_derivative_estimate(frozen), 0.0)


def test_metric_derivative_exact_flows():
    cfg = JkoConfig(tau=1e-3, n=200, t_end=0.5)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    speeds = metric_derivative_estimate(traj)
    assert np.allclose(speeds, 1 / np.sqrt(3), atol=5e-3)
    # attractive pair before collapse moves at speed 1/2
    traj2 = run_flow(ATTRACTIVE, _pair(-1.0, 1.0), JkoConfig(tau=1e-3, n=200, t_end=1.0))
    speeds2 = metric_derivative_estimate(traj2)
    assert np.allclose(speeds2, 0.5, atol=5e-3)


def test_weak_residual_stationary_state():
    # a symmetric pair under no interaction is frozen with zero velocity;
    # the residual is then pure time-quadrature error and shrinks with tau
    W0 = Potential()
    bumps = default_bump_library((-2.0, 2.0), (0.02, 0.18))
    res = {}
    for tau in (1e-2, 1e-3):
        cfg = JkoConfig(tau=tau, n=40, t_end=0.2)
        traj = run_flow(W0, _pair(-1.0, 1.0), cfg)
        res[tau] = weak_residual(traj, W0, bumps)
    assert res[1e-3] <= 1e-5
    assert res[1e-3] <= res[1e-2] / 10.0


def test_weak_residual_exact_flow_small():
    cfg = JkoConfig(tau=1e-3, n=400, t_end=1.0)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    bumps = default_bump_library((-1.1, 1.1), (0.05, 0.95))
    assert weak_residual(traj, REPULSIVE, bumps) <= 5e-2


def test_weak_residual_detects_corruption():
    cfg = JkoConfig(tau=2e-3, n=100, t_end=0.5)
    traj = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
    bumps = default_bump_library((-0.6, 0.6), (0.02, 0.48))
    good = weak_residual(traj, REPULSIVE, bumps)
    bad = weak_residual(traj, Potential(), bumps)
    assert bad >= 10 * good
    assert bad > 1e-3
