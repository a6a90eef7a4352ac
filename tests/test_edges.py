"""Property tests over the edges of the parameter space.

Every scenario that validates must get a design, the design's flows must
pass the Wardrop check, and its loss must lie between zero and the better
of the two baselines (no information, full information), with slack
``EPS * demand``.  A scenario with one non-finite field must be refused by
validation, naming the field, and by every solver with
:class:`InvalidScenarioError`.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import (
    EPS,
    GridSpec,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    average_spillover,
    best_response_equilibrium,
    grid_search_design,
    lambda_thresholds,
    optimal_design,
    p_bar,
    solve_equilibrium,
    tau_bounds,
    validate_scenario,
    verify_wardrop,
)
from routegame.model import SCENARIO_FIELDS

FULL = InformationStructure.full_revelation()
SOLVERS = (
    optimal_design,
    lambda_thresholds,
    lambda s: solve_equilibrium(s, FULL),
    lambda s: verify_wardrop(s, FULL, (0.0, 0.0)),
    lambda s: best_response_equilibrium(s, FULL, GridSpec()),
    lambda s: grid_search_design(s, GridSpec(steps_pi=3)),
)

unit = st.floats(0.0, 1.0)


@st.composite
def edge_scenarios(draw, fraction_thresholds: bool = True) -> NetworkScenario:
    """Slopes and free-flow times as in ``conftest.random_scenario``, with
    ``b1``, ``b2``, ``demand`` and ``tau`` scaled by ``10**k``, and ``p``,
    ``tau`` and ``lambda_`` drawn at or between the ends of their ranges
    (for ``lambda_`` also at ``lambda_thresholds`` if ``fraction_thresholds``)."""
    a1n = draw(st.floats(0.5, 2.0))
    a2 = a1n * draw(st.floats(1.2, 2.5))
    a1a = a2 * draw(st.floats(1.2, 2.5))
    b1 = draw(st.floats(5.0, 20.0))
    b2 = b1 + draw(st.floats(1.0, 15.0))
    demand = (b2 - b1) / a1n * draw(st.floats(1.5, 4.0))
    scale = 10.0 ** draw(st.integers(-2, 8))
    s = NetworkScenario(a1a, a1n, a2, b1 * scale, b2 * scale, demand * scale, 0.5, 0.5, 1.0)

    low, high = tau_bounds(s)
    tau = draw(st.sampled_from([low, None, high]))
    if tau is None:
        tau = low + draw(unit) * (high - low)
    p = draw(st.sampled_from([0.0, 1.0, None]))
    if p is None:
        p = draw(unit)
    s = replace(s, tau=tau, p=p)

    ends = [0.0, 1.0, "low", "high", None] if fraction_thresholds else [0.0, 1.0, None]
    lam = draw(st.sampled_from(ends))
    if lam in ("low", "high"):
        lam = lambda_thresholds(s)[lam == "high"] if s.p > p_bar(s) + EPS else None
    if lam is None:
        lam = draw(unit)
    return replace(s, lambda_=lam)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_scenarios())
def test_edge_scenarios_solve_within_baselines(s):
    assert validate_scenario(s).ok
    sol = optimal_design(s)
    report = verify_wardrop(s, sol.pi_star, (sol.outcome.f2_given_n, sol.outcome.f2_given_a))
    assert report.ok, report.violations
    baselines = (
        average_spillover(s, solve_equilibrium(s, pi))
        for pi in (InformationStructure.no_information(), InformationStructure.full_revelation())
    )
    slack = EPS * s.demand
    assert -slack <= sol.loss <= min(baselines) + slack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    edge_scenarios(fraction_thresholds=False),
    st.sampled_from(SCENARIO_FIELDS),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
def test_non_finite_field_is_refused(s, name, value):
    s = replace(s, **{name: value})
    violations = validate_scenario(s).violations
    assert any(v.startswith(name + " ") for v in violations), violations
    for solve in SOLVERS:
        with pytest.raises(InvalidScenarioError):
            solve(s)
