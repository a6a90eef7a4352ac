"""Solvers for a two-route congestion game with an uncertain incident state.

The library computes equilibrium route flows for any feasible signal
distribution sent to a fraction of travelers, solves the planner's
spillover-minimizing signal design in closed form, and ships independent
brute-force engines that verify both against nothing but the equilibrium
conditions.
"""

from . import design, equilibrium, model, oracle
from .design import *
from .equilibrium import *
from .model import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *equilibrium.__all__, *design.__all__, *oracle.__all__]
