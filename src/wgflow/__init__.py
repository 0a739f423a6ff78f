"""Quantile-coordinate gradient flows for pairwise interaction energies on
the line, with exact discrete optimal transport and closed-form reference
solutions for the cusp potentials.

Each public name, and each submodule, is imported on first access (PEP
562), so a process that needs only transport loads only ``measures`` and
``transport``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "measures": "DomainError Measure1D QuantileGrid cdf expectation from_quantile_grid quantile "
    "quantile_pieces to_quantile_grid",
    "potential": "ConvexityCertificate Potential convexity_certificate deriv_smooth energy_subgradient "
    "evaluate interaction_energy velocity_profile",
    "transport": "DiscreteInstance DualSolution PivotCapReached TransportPlan solve_dual solve_primal "
    "w2_exact_discrete w2_quantile",
    "jko": "ConvergenceFailure FlowTrajectory JkoConfig energy_identity_residual evi_residual "
    "isotonic_project jko_step run_flow",
    "particles": "ParticleState integrate nonuniqueness_branches ode_rhs quantile_trajectory",
    "analytic": "ExactSolution KIND_ATTRACTIVE KIND_REPULSIVE SpaceTimeBump collapse_time "
    "default_bump_library exact_grid exact_measure exact_quantile metric_derivative_estimate "
    "weak_residual",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
