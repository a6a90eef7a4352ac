"""Shared scenario builders for the test suite."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from routegame import NetworkScenario, InformationStructure, p_bar, tau_bounds, validate_scenario
from routegame.equilibrium import _spillover

# Golden network used throughout: short incident-prone route 1 against a
# steady route 2, demand 10, incident prior 0.3, threshold 2.5.
GOLDEN = NetworkScenario(
    alpha1_a=3.0,
    alpha1_n=1.0,
    alpha2=2.0,
    b1=15.0,
    b2=20.0,
    demand=10.0,
    p=0.3,
    lambda_=0.2,
    tau=2.5,
)


# The demo config file holds the golden scenario.
DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo_network.cfg"


def golden_scenario(**overrides) -> NetworkScenario:
    return replace(GOLDEN, **overrides) if overrides else GOLDEN


def spillover(s: NetworkScenario, outcome) -> float:
    """Realized average route-2 flow above the threshold of an ``EquilibriumOutcome``."""
    return _spillover(s, outcome.f2_given_n, outcome.f2_given_a, outcome.beliefs.pr_a)


class Exact(Fraction):
    """A ``Fraction`` that takes a float operand as the exact rational it is, where
    ``Fraction`` returns a float: float code run on ``Exact`` inputs computes exactly."""

    __slots__ = ()


def _exact(x) -> Exact:
    # Floats, ints and Fractions give their ratio in lowest terms, which fills Fraction's
    # two slots as is; Fraction.__new__ made the edge-structure reference 1.4x as slow.
    e = object.__new__(Exact)
    e._numerator, e._denominator = x.as_integer_ratio()
    return e


def _lift(op):
    def exact_op(a, b):
        out = op(a, _exact(b) if isinstance(b, float) else b)
        return out if out is NotImplemented else _exact(out)

    return exact_op


for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
    setattr(Exact, f"__{_name}__", _lift(getattr(Fraction, f"__{_name}__")))
Exact.__neg__ = lambda a: _exact(Fraction.__neg__(a))
Exact.__abs__ = lambda a: _exact(Fraction.__abs__(a))


def exact_scenario(s: NetworkScenario, **overrides) -> NetworkScenario:
    """``s`` with ``overrides`` applied and every field an ``Exact``."""
    return NetworkScenario(**{k: _exact(v) for k, v in {**vars(s), **overrides}.items()})


def random_scenario(rng: np.random.Generator, persuasion: bool = False) -> NetworkScenario:
    """Draw a scenario satisfying every invariant.

    With ``persuasion=True`` the incident prior is placed strictly above
    the no-persuasion threshold so the lambda regimes exist.
    """
    a1n = rng.uniform(0.5, 2.0)
    a2 = a1n * rng.uniform(1.2, 2.5)
    a1a = a2 * rng.uniform(1.2, 2.5)
    b1 = rng.uniform(5.0, 20.0)
    b2 = b1 + rng.uniform(1.0, 15.0)
    demand = (b2 - b1) / a1n * rng.uniform(1.5, 4.0)
    base = NetworkScenario(a1a, a1n, a2, b1, b2, demand, 0.5, 0.5, 1.0)
    low, high = tau_bounds(base)
    base = replace(base, tau=low + rng.uniform(0.05, 0.85) * (high - low))
    if persuasion:
        pb = p_bar(base)
        p = pb + (1.0 - pb) * rng.uniform(0.15, 0.9)
    else:
        p = rng.uniform(0.01, 0.99)
    scenario = replace(base, p=p, lambda_=float(rng.uniform(0.0, 1.0)))
    assert validate_scenario(scenario).ok
    return scenario


def random_structure(rng: np.random.Generator) -> InformationStructure:
    pi_aa = float(rng.uniform(0.0, 1.0))
    pi_nn = float(rng.uniform(1.0 - pi_aa, 1.0))
    return InformationStructure(pi_aa, pi_nn)


@pytest.fixture
def ex1() -> NetworkScenario:
    return GOLDEN
