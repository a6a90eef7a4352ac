"""Property test over the edges of the parameter space.

Every scenario that validates must get a design, the design's flows must
pass the Wardrop check, and its loss must lie between zero and the better
of the two baselines (no information, full information), with slack
``EPS * demand``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import (
    EPS,
    InformationStructure,
    NetworkScenario,
    average_spillover,
    lambda_thresholds,
    optimal_design,
    p_bar,
    solve_equilibrium,
    tau_bounds,
    validate_scenario,
    verify_wardrop,
)

unit = st.floats(0.0, 1.0)


@st.composite
def edge_scenarios(draw) -> NetworkScenario:
    """Slopes and free-flow times as in ``conftest.random_scenario``, with
    ``b1``, ``b2``, ``demand`` and ``tau`` scaled by ``10**k``, and ``p``,
    ``tau`` and ``lambda_`` drawn at or between the ends of their ranges."""
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

    lam = draw(st.sampled_from([0.0, 1.0, "low", "high", None]))
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
    report = verify_wardrop(s, sol.pi_star, sol.outcome)
    assert report.ok, report.violations
    baselines = (
        average_spillover(s, solve_equilibrium(s, pi))
        for pi in (InformationStructure.no_information(), InformationStructure.full_revelation())
    )
    slack = EPS * s.demand
    assert -slack <= sol.loss <= min(baselines) + slack
