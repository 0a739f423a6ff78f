"""Measure construction, CDF/quantile pairs, grids, and their invariants."""

import numpy as np
import pytest

from wgflow import (
    DomainError,
    Measure1D,
    QuantileGrid,
    cdf,
    expectation,
    from_quantile_grid,
    quantile,
    quantile_pieces,
    to_quantile_grid,
)
from oracles import random_measure
from wgflow.measures import _check_grids


def test_cdf_dirac():
    m = Measure1D.dirac(0.0)
    assert cdf(m, -1.0) == 0.0
    assert cdf(m, 0.0) == 1.0


def test_cdf_uniform_midpoint():
    assert cdf(Measure1D.uniform(-1.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_right_continuous_and_monotone():
    rng = np.random.default_rng(7)
    m = random_measure(rng)
    xs = np.linspace(-4, 4, 400)
    vals = [cdf(m, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x, _ in m.atoms:
        eps = 1e-12
        assert cdf(m, x + eps) == pytest.approx(cdf(m, x), abs=1e-9)


def test_quantile_two_atoms():
    m = Measure1D(atoms=((0.0, 0.5), (1.0, 0.5)))
    assert quantile(m, 0.25) == 0.0
    assert quantile(m, 0.75) == 1.0


def test_quantile_uniform_affine():
    x0, t = 0.3, 1.7
    m = Measure1D.uniform(x0 - t, x0 + t)
    for z in (0.1, 0.25, 0.5, 0.9):
        assert quantile(m, z) == pytest.approx(x0 + t * (2 * z - 1), abs=1e-12)


def test_quantile_domain_error():
    m = Measure1D.dirac(0.0)
    with pytest.raises(DomainError):
        quantile(m, 0.0)
    with pytest.raises(DomainError):
        quantile(m, 1.0)


def test_to_quantile_grid_examples():
    assert np.array_equal(to_quantile_grid(Measure1D.dirac(3.0), 4).values, [3, 3, 3, 3])
    assert np.allclose(
        to_quantile_grid(Measure1D.uniform(-1, 1), 2).values, [-0.5, 0.5]
    )
    g = to_quantile_grid(Measure1D(atoms=((0.0, 0.5), (1.0, 0.5))), 4)
    assert np.array_equal(g.values, [0, 0, 1, 1])


def test_to_quantile_grid_bad_size():
    with pytest.raises(DomainError):
        to_quantile_grid(Measure1D.dirac(0.0), 0)


def test_from_quantile_grid_merges():
    assert from_quantile_grid(QuantileGrid([3, 3, 3, 3])).atoms == ((3.0, 1.0),)
    assert from_quantile_grid(QuantileGrid([-0.5, 0.5])).atoms == (
        (-0.5, 0.5),
        (0.5, 0.5),
    )
    assert from_quantile_grid(QuantileGrid([0, 0, 1, 1])).atoms == (
        (0.0, 0.5),
        (1.0, 0.5),
    )


def test_expectation_examples():
    assert expectation(QuantileGrid([3, 3, 3, 3]), lambda x: x) == 3.0
    g = to_quantile_grid(Measure1D.uniform(-1, 1), 200)
    assert expectation(g, lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert expectation(QuantileGrid([0, 0, 1, 1]), lambda x: x) == 0.5


def test_grid_invariants():
    with pytest.raises(DomainError):
        QuantileGrid([1.0, 0.5])
    with pytest.raises(DomainError):
        QuantileGrid([])
    g = QuantileGrid([1.0, 2.0])
    assert not g.values.flags.writeable


def test_check_grids_refuses_an_array_where_it_refuses_a_row():
    # the whole array in one pass, more than 4,096 values in some cases
    rng = np.random.default_rng(20261020)
    sizes = []
    for case in range(60):
        v = np.sort(rng.normal(size=(int(rng.integers(1, 61)), int(rng.integers(1, 301)))), axis=1)
        k, j = int(rng.integers(v.shape[0])), int(rng.integers(v.shape[1]))
        v[k, j] = (np.nan, np.inf, -np.inf, v[k, j] - 1.0, v[k, j])[case % 5]
        sizes.append(v.size)

        def refused(a):
            try:
                _check_grids(a)
            except DomainError:
                return True
            return False

        assert refused(v) == any(refused(row[None]) for row in v)
    assert max(sizes) > 4096


def test_measure_invariants():
    with pytest.raises(DomainError):
        Measure1D(atoms=((0.0, 0.5),))
    with pytest.raises(DomainError):
        Measure1D(atoms=((0.0, -0.5), (1.0, 1.5)))
    with pytest.raises(DomainError):
        Measure1D(pieces=((1.0, 0.0, 1.0),))


def test_galois_relation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_measure(rng)
        for s in np.linspace(0.05, 0.95, 7):
            for x in np.linspace(-4, 4, 9):
                if s < cdf(m, x):
                    assert quantile(m, s) <= x + 1e-12


def test_quantile_monotone_many_measures():
    rng = np.random.default_rng(13)
    levels = np.linspace(0.01, 0.99, 25)
    for _ in range(1000):
        m = random_measure(rng)
        vals = [quantile(m, s) for s in levels]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_round_trip_exact():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        vals = np.sort(rng.integers(-3, 4, size=n).astype(float))
        g = QuantileGrid(vals)
        back = to_quantile_grid(from_quantile_grid(g), n)
        assert np.array_equal(back.values, g.values)


def test_round_trip_exact_from_measures():
    # sampling a measure, atomizing the sample, and resampling at the same
    # level reproduces the grid bit for bit
    rng = np.random.default_rng(117)
    for _ in range(100):
        m = random_measure(rng)
        n = int(rng.integers(1, 64))
        g = to_quantile_grid(m, n)
        assert np.array_equal(g.values, [quantile(m, s) for s in g.nodes])
        back = to_quantile_grid(from_quantile_grid(g), n)
        assert np.array_equal(back.values, g.values)


def test_second_moment_converges_first_order():
    m = Measure1D(
        atoms=((-0.7, 0.3),),
        pieces=((-1.3, 0.2, 0.45), (0.4, 1.9, 0.25)),
    )
    exact = m.second_moment()
    errs = []
    for n in (100, 200, 400, 800):
        approx = expectation(to_quantile_grid(m, n), lambda x: x * x)
        errs.append(abs(approx - exact))
    assert errs[2] <= errs[0] / 2.0
    assert errs[3] <= errs[1] / 2.0
    assert errs[0] <= 0.05


def test_quantile_pieces_cover_unit_interval():
    """The pieces tile (0, 1), and each piece's ``x0`` is, bit for bit, the
    atom position or segment breakpoint where it starts."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = random_measure(rng)
        segs = quantile_pieces(m)
        assert segs[0][0] == 0.0
        assert segs[-1][1] == pytest.approx(1.0, abs=1e-9)
        for (s0, s1, _, _), (t0, _, _, _) in zip(segs, segs[1:]):
            assert s1 == pytest.approx(t0, abs=1e-12)
            assert s1 > s0
        atoms = {x for x, _ in m.atoms}
        breaks = sorted(atoms | {v for l, r, _ in m.pieces for v in (l, r)})
        for s0, s1, x0, b in segs:
            assert x0 in (atoms if b == 0.0 else breaks)
            # an atom fills the levels up to cdf(x0), a rising piece starts there
            assert cdf(m, x0) == pytest.approx(s1 if b == 0.0 else s0, abs=1e-12)


def test_json_round_trip():
    m = Measure1D(atoms=((0.5, 0.25),), pieces=((-1.0, 1.0, 0.75),))
    again = Measure1D.from_json_dict(m.to_json_dict())
    assert again == m


def test_overlapping_atom_and_piece():
    m = Measure1D(atoms=((0.0, 0.5),), pieces=((-1.0, 1.0, 0.5),))
    assert cdf(m, -1.0) == 0.0
    assert cdf(m, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert cdf(m, 1.0) == pytest.approx(1.0, abs=1e-15)
    # the atom occupies quantile levels [0.25, 0.75]
    assert quantile(m, 0.5) == 0.0
    assert quantile(m, 0.9) == pytest.approx(0.6, abs=1e-12)
