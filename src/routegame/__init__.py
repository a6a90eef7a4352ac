"""Solvers for a two-route congestion game with an uncertain incident state.

The library computes equilibrium route flows for any feasible signal
distribution sent to a fraction of travelers, solves the planner's
spillover-minimizing signal design in closed form, and ships independent
brute-force engines that verify both against nothing but the equilibrium
conditions.
"""

from .design import (
    DesignSolution,
    Regime,
    RegimeError,
    Thresholds,
    lambda_thresholds,
    optimal_design,
    p_bar,
)
from .equilibrium import (
    BeliefSystem,
    Branch,
    EquilibriumOutcome,
    InfeasibleStrategyError,
    VerificationReport,
    average_spillover,
    posterior_beliefs,
    solve_equilibrium,
    verify_wardrop,
)
from .model import (
    EPS,
    ConvergenceError,
    DomainError,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    ScenarioParseError,
    ValidationReport,
    format_scenario,
    load_scenario,
    parse_scenario,
    tau_bounds,
    validate_scenario,
)

__version__ = "0.1.0"

_ORACLE_NAMES = ("GridSpec", "best_response_equilibrium", "grid_search_design")


def __getattr__(name: str) -> object:
    """Import the numpy-backed oracle on first use of one of its names."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


__all__ = [
    "EPS",
    "BeliefSystem",
    "Branch",
    "ConvergenceError",
    "DesignSolution",
    "DomainError",
    "EquilibriumOutcome",
    "GridSpec",
    "InfeasibleStrategyError",
    "InformationStructure",
    "InvalidScenarioError",
    "NetworkScenario",
    "Regime",
    "RegimeError",
    "ScenarioParseError",
    "Thresholds",
    "ValidationReport",
    "VerificationReport",
    "average_spillover",
    "best_response_equilibrium",
    "format_scenario",
    "grid_search_design",
    "lambda_thresholds",
    "load_scenario",
    "optimal_design",
    "p_bar",
    "parse_scenario",
    "posterior_beliefs",
    "solve_equilibrium",
    "tau_bounds",
    "validate_scenario",
    "verify_wardrop",
]
