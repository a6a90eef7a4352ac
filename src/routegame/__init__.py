"""Solvers for a two-route congestion game with an uncertain incident state.

The library computes equilibrium route flows for any feasible signal
distribution sent to a fraction of travelers, solves the planner's
spillover-minimizing signal design in closed form, and ships independent
brute-force engines that verify both against nothing but the equilibrium
conditions.
"""

from . import design, equilibrium, model
from .design import *
from .equilibrium import *
from .model import *

__version__ = "0.1.0"

_ORACLE_NAMES = ("GridSpec", "best_response_equilibrium", "grid_search_design")


def __getattr__(name: str) -> object:
    """Import the numpy-backed oracle on first use of one of its names."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


__all__ = [*model.__all__, *equilibrium.__all__, *design.__all__, *_ORACLE_NAMES]
