"""Solvers for a two-route congestion game with an uncertain incident state.

The library computes equilibrium route flows for any feasible signal
distribution sent to a fraction of travelers, solves the planner's
spillover-minimizing signal design in closed form, and ships independent
brute-force engines that verify both against nothing but the equilibrium
conditions.

The package loads lazily (PEP 562): ``import routegame`` runs none of its
submodules. The first access to a submodule imports it, and the first
access to a public name imports the submodules in the order below up to
the one whose ``__all__`` lists it. ``__all__`` lists the public names of
all four in that order.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("model", "equilibrium", "design", "oracle")


def _submodule(name: str):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _submodule(name)
    elif name == "__all__":
        value = [n for module in map(_submodule, _SUBMODULES) for n in module.__all__]
    else:
        home = next((m for m in map(_submodule, _SUBMODULES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
