"""Quantile-coordinate gradient flows for pairwise interaction energies on
the line, with exact discrete optimal transport and closed-form reference
solutions for the cusp potentials."""

from .measures import (
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
from .potential import (
    ConvexityCertificate,
    Potential,
    convexity_certificate,
    deriv_smooth,
    energy_subgradient,
    evaluate,
    interaction_energy,
    velocity_field,
    velocity_profile,
)
from .transport import (
    DiscreteInstance,
    DualSolution,
    PivotCapReached,
    TransportPlan,
    solve_dual,
    solve_primal,
    w2_exact_discrete,
    w2_quantile,
)
from .jko import (
    ConvergenceFailure,
    FlowTrajectory,
    JkoConfig,
    energy_identity_residual,
    evi_residual,
    isotonic_project,
    jko_step,
    run_flow,
)
from .particles import (
    ParticleState,
    integrate,
    nonuniqueness_branches,
    ode_rhs,
    quantile_trajectory,
)
from .analytic import (
    ExactSolution,
    KIND_ATTRACTIVE,
    KIND_REPULSIVE,
    SpaceTimeBump,
    collapse_time,
    default_bump_library,
    exact_grid,
    exact_measure,
    exact_quantile,
    metric_derivative_estimate,
    weak_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
