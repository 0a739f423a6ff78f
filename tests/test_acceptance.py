"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line on success so a verbose run doubles as the
acceptance report.  Shared expensive runs (the reference diffusion flow at
tau and tau/2) are computed once per session.

Some flows here are reproduced exactly by the quantile scheme (the cusp
energy is linear on the monotone cone, so the proximal step is closed form);
their errors sit at roundoff and the step-halving ratios are then asserted
against a 1e-10 floor instead of a meaningless quotient of noise.
"""

import numpy as np
import pytest

from wgflow import (
    ExactSolution,
    JkoConfig,
    KIND_REPULSIVE,
    Measure1D,
    ParticleState,
    Potential,
    QuantileGrid,
    default_bump_library,
    energy_identity_residual,
    energy_subgradient,
    evi_residual,
    exact_grid,
    integrate,
    interaction_energy,
    metric_derivative_estimate,
    nonuniqueness_branches,
    run_flow,
    solve_dual,
    solve_primal,
    to_quantile_grid,
    w2_exact_discrete,
    w2_quantile,
    weak_residual,
)
from wgflow.particles import interaction_energy as particle_energy
from oracles import central_difference, exhaustive_transport_minimum, random_instance

REPULSIVE = Potential(eta=-1.0)
ATTRACTIVE = Potential(eta=1.0)
FLOOR = 1e-10


def _nodes(n):
    return (np.arange(n) + 0.5) / n


def _halves(err_coarse, err_fine):
    """err halves (within 50%) under step halving, or both sit at roundoff."""
    if max(err_coarse, err_fine) <= FLOOR:
        return True
    return 0.25 * err_coarse <= err_fine <= 0.75 * err_coarse


@pytest.fixture(scope="module")
def dirac_run():
    cfg = JkoConfig(tau=1e-3, n=200, t_end=1.0)
    return cfg, run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)


@pytest.fixture(scope="module")
def dirac_run_half():
    cfg = JkoConfig(tau=5e-4, n=200, t_end=1.0)
    return cfg, run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)


def test_criterion_1_dirac_diffusion(dirac_run, dirac_run_half):
    cfg, traj = dirac_run
    _, traj_half = dirac_run_half
    target = QuantileGrid(2.0 * _nodes(cfg.n) - 1.0)
    err = w2_quantile(traj.state(-1), target)
    err_half = w2_quantile(traj_half.state(-1), target)
    assert err <= 2e-2
    assert _halves(err, err_half)
    print(f"PASS criterion 1: dirac diffusion error {err:.2e} (tau/2: {err_half:.2e})")


def test_criterion_2_two_and_three_dirac_blocks():
    t_end = 1.0
    cases = [
        Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))),
        Measure1D(atoms=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
    ]
    worst = 0.0
    for init in cases:
        sol = ExactSolution(KIND_REPULSIVE, init, 1.0)
        errs = []
        for tau in (1e-3, 5e-4):
            cfg = JkoConfig(tau=tau, n=200, t_end=t_end)
            traj = run_flow(REPULSIVE, init, cfg)
            errs.append(
                w2_quantile(traj.state(-1), exact_grid(sol, t_end, cfg.n))
            )
        assert errs[0] <= 2e-2
        assert _halves(errs[0], errs[1])
        worst = max(worst, errs[0])
    print(f"PASS criterion 2: block-density errors at most {worst:.2e}")


def test_criterion_3_finite_time_collapse():
    dt = 1e-4
    history = integrate(
        ATTRACTIVE, ParticleState([-1.0, 1.0], [0.5, 0.5]), 3.0, dt
    )
    merged = next(s for s in history if s.count == 1)
    assert merged.time == pytest.approx(2.0, abs=dt)
    cfg = JkoConfig(tau=1e-3, n=200, t_end=3.0)
    traj = run_flow(ATTRACTIVE, Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))), cfg)
    spread = traj.state(-1).values.max() - traj.state(-1).values.min()
    assert spread <= 1e-6
    print(
        f"PASS criterion 3: particles merge at t={merged.time:.6f}, "
        f"flow spread at t=3 is {spread:.1e}"
    )


def test_criterion_4_energy_identity(dirac_run):
    _, traj = dirac_run
    n = traj.grid_size
    assert traj.energies[0] == 0.0
    assert traj.energies[-1] == pytest.approx(-1.0 / 3.0, abs=1e-2)
    residual = energy_identity_residual(REPULSIVE, traj)
    assert residual <= 0.02
    residuals = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        cfg = JkoConfig(tau=tau, n=n, t_end=1.0)
        run = run_flow(REPULSIVE, Measure1D.dirac(0.0), cfg)
        residuals.append(energy_identity_residual(REPULSIVE, run))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= coarse / 1.5 or max(coarse, fine) <= FLOOR
    print(
        f"PASS criterion 4: energy identity residual {residual:.2e}, "
        f"halving series {['%.1e' % r for r in residuals]}"
    )


def test_criterion_5_evi(dirac_run):
    cfg, traj = dirac_run
    references = (
        Measure1D.uniform(-1.0, 1.0),
        Measure1D.dirac(0.0),
        Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))),
    )
    worst = -np.inf
    for ref in references:
        sigma = to_quantile_grid(ref, cfg.n)
        worst = max(worst, float(np.max(evi_residual(REPULSIVE, traj, sigma))))
    assert worst <= 0.05
    print(f"PASS criterion 5: max EVI residual {worst:.3e}")


def test_criterion_6_selection_principle():
    t = 1.0
    diffuse = to_quantile_grid(Measure1D.uniform(-t, t), 400)
    e_diffuse = interaction_energy(REPULSIVE, diffuse)
    stationary, pair, triple, _ = nonuniqueness_branches(0.0, t)
    e_stationary = particle_energy(REPULSIVE, stationary)
    e_pair = particle_energy(REPULSIVE, pair)
    e_triple = particle_energy(REPULSIVE, triple)
    assert e_diffuse == pytest.approx(-1.0 / 3.0, abs=2e-3)
    assert e_triple == pytest.approx(-8.0 / 27.0, abs=2e-3)
    assert e_pair == pytest.approx(-1.0 / 4.0, abs=2e-3)
    assert e_stationary == pytest.approx(0.0, abs=2e-3)
    assert e_diffuse < e_triple < e_pair < e_stationary
    print(
        "PASS criterion 6: energies ordered "
        f"{e_diffuse:.4f} < {e_triple:.4f} < {e_pair:.4f} < {e_stationary:.4f}"
    )


def test_criterion_7_metric_derivative(dirac_run):
    _, traj = dirac_run
    speeds = metric_derivative_estimate(traj)
    window = speeds[traj.times[1:] >= 0.1]
    dev = float(np.max(np.abs(window - 1.0 / np.sqrt(3.0))))
    assert dev <= 5e-3
    print(f"PASS criterion 7: metric derivative within {dev:.1e} of 3^-1/2")


def test_criterion_8_transport_duality():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        inst = random_instance(rng, max_size=4, dim=2)
        plan = solve_primal(inst)
        oracle = exhaustive_transport_minimum(
            inst.source_masses, inst.sink_masses, inst.cost
        )
        assert plan.objective == pytest.approx(oracle, abs=1e-12)
        dual = solve_dual(inst, plan)
        worst_gap = max(worst_gap, abs(plan.objective - dual.objective))
        assert worst_gap <= 1e-7
    worst_1d = 0.0
    for _ in range(200):
        inst = random_instance(rng, max_size=4, dim=1)
        plan = solve_primal(inst)
        m1 = Measure1D.from_atoms(
            tuple(zip(inst.source_points[:, 0], inst.source_masses))
        )
        m2 = Measure1D.from_atoms(tuple(zip(inst.sink_points[:, 0], inst.sink_masses)))
        diff = abs(np.sqrt(plan.objective) - w2_exact_discrete(m1, m2))
        worst_1d = max(worst_1d, diff)
        assert diff <= 1e-9
    print(
        f"PASS criterion 8: 200 duality gaps at most {worst_gap:.1e}, "
        f"200 quantile checks within {worst_1d:.1e}"
    )


def test_criterion_9_cusp_convexity_identity():
    rng = np.random.default_rng(3030)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 48))
        g1 = QuantileGrid(np.sort(rng.uniform(-1, 1, n)))
        g2 = QuantileGrid(np.sort(rng.uniform(-1, 1, n)))
        theta = float(rng.random())
        mid = QuantileGrid((1 - theta) * g1.values + theta * g2.values)
        defect = abs(
            interaction_energy(REPULSIVE, mid)
            - (1 - theta) * interaction_energy(REPULSIVE, g1)
            - theta * interaction_energy(REPULSIVE, g2)
        )
        worst = max(worst, defect)
        assert defect <= 1e-12
    print(f"PASS criterion 9: cusp affinity defect at most {worst:.1e}")


def test_criterion_10_gradient_checks():
    rng = np.random.default_rng(4040)
    potentials = (
        REPULSIVE,
        ATTRACTIVE,
        Potential(beta=1.0),
        Potential(terms=((1.0 / 3.0, 3.0),)),
    )
    assert not potentials[3].jko_eligible  # particles-only eligibility respected
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 16))
        values = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 5e-3
        g = QuantileGrid(values)
        W = potentials[int(rng.integers(0, 4))]

        def energy_of(vec):
            return interaction_energy(W, QuantileGrid(vec))

        fd = central_difference(energy_of, g.values, 1e-6)
        sub = energy_subgradient(W, g)
        rel = float(
            np.max(np.abs(sub - fd)) / max(1e-12, float(np.max(np.abs(fd))))
        )
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(f"PASS criterion 10: gradient check relative error at most {worst:.1e}")


def test_criterion_11_weak_residual(dirac_run):
    _, traj = dirac_run
    bumps = default_bump_library((-1.1, 1.1), (0.05, 0.95))
    residual = weak_residual(traj, REPULSIVE, bumps)
    corrupted = weak_residual(traj, Potential(), bumps)
    assert residual <= 5e-2
    assert corrupted >= 10 * residual
    print(
        f"PASS criterion 11: weak residual {residual:.2e}, "
        f"corrupted {corrupted:.2e}"
    )


def test_criterion_12_center_of_mass(dirac_run):
    runs = [dirac_run[1]]
    runs.append(
        run_flow(
            ATTRACTIVE,
            Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5))),
            JkoConfig(tau=1e-3, n=100, t_end=3.0),
        )
    )
    runs.append(
        run_flow(
            REPULSIVE,
            Measure1D(atoms=((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
            JkoConfig(tau=1e-3, n=100, t_end=1.0),
        )
    )
    worst = 0.0
    for traj in runs:
        start = float(np.mean(traj.state(0).values))
        for k, t in enumerate(traj.times):
            drift = abs(float(np.mean(traj.state(k).values)) - start) / max(float(t), 1.0)
            worst = max(worst, drift)
            assert drift <= 1e-9
    print(f"PASS criterion 12: center-of-mass drift at most {worst:.1e} per unit time")
