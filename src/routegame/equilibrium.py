"""Posterior beliefs, equilibrium route flows, verification, and costs.

Given a scenario and a signal distribution, the unique equilibrium falls
into one of two branches.  When the belief gap induced by the two signals
is large relative to the informed fraction (``g_value >= lambda_``),
every informed traveler switches route with the signal and the uninformed
population splits.  Otherwise both populations split and the flows no
longer depend on the informed fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    EPS,
    DomainError,
    InformationStructure,
    NetworkScenario,
    require_valid,
)

__all__ = [
    "BeliefSystem", "Branch", "EquilibriumOutcome", "InfeasibleStrategyError",
    "VerificationReport", "average_spillover", "posterior_beliefs", "solve_equilibrium",
    "verify_wardrop",
]


class Branch(Enum):
    """Which equilibrium branch the flows follow."""

    INFORMED_SWITCH_ALL = "informed_switch_all"
    BOTH_SPLIT = "both_split"


class InfeasibleStrategyError(ValueError):
    """No nonnegative strategy decomposition reproduces the given flows."""


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior incident probabilities and signal marginals.

    Only the incident posteriors are stored; the nominal ones are their
    complements, ``beta_s(n) = 1 - beta_s(a)``, and ``pr_n = 1 - pr_a``.
    When a signal has zero probability its posterior is the prior, which
    keeps downstream quantities well defined and continuous as the
    structure approaches degeneracy.
    """

    beta_a_of_a: float
    beta_n_of_a: float
    pr_a: float

    def __post_init__(self) -> None:
        if not -EPS <= self.beta_a_of_a <= 1.0 + EPS:
            raise DomainError(f"beta_a_of_a must lie in [0, 1], got {self.beta_a_of_a!r}")
        if not -EPS <= self.beta_n_of_a <= 1.0 + EPS:
            raise DomainError(f"beta_n_of_a must lie in [0, 1], got {self.beta_n_of_a!r}")
        if not -EPS <= self.pr_a <= 1.0 + EPS:
            raise DomainError(f"pr_a must lie in [0, 1], got {self.pr_a!r}")
        if self.beta_a_of_a < self.beta_n_of_a - EPS:
            raise DomainError(
                "posterior ordering violated: "
                f"beta_a_of_a={self.beta_a_of_a!r} < beta_n_of_a={self.beta_n_of_a!r}"
            )

    @property
    def pr_n(self) -> float:
        return 1.0 - self.pr_a


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Per-signal route flows plus the costs they induce."""

    f2_given_n: float
    f2_given_a: float
    f1_given_n: float
    f1_given_a: float
    branch: Branch
    g_value: float
    beliefs: BeliefSystem
    cost_pop1: float
    cost_pop2: float
    cost_avg: float

    def to_record(self) -> dict[str, object]:
        """Flatten to the stable serialization record."""
        return {
            "f2_n": self.f2_given_n,
            "f2_a": self.f2_given_a,
            "f1_n": self.f1_given_n,
            "f1_a": self.f1_given_a,
            "branch": self.branch.value,
            "g_value": self.g_value,
            "pr_a": self.beliefs.pr_a,
            "beta_a_a": self.beliefs.beta_a_of_a,
            "beta_n_a": self.beliefs.beta_n_of_a,
            "cost_pop1": self.cost_pop1,
            "cost_pop2": self.cost_pop2,
            "cost_avg": self.cost_avg,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Result of checking the equilibrium conditions on a flow vector."""

    violations: tuple[str, ...] = ()
    max_gap: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def posterior_beliefs(s: NetworkScenario, pi: InformationStructure) -> BeliefSystem:
    """Bayes-update the prior with the signal distribution.

    Zero-probability signals keep the prior as their posterior.
    """
    p = s.p
    pr_a = p * pi.pi_a_given_a + (1.0 - p) * pi.pi_a_given_n
    pr_n = 1.0 - pr_a
    beta_a = p * pi.pi_a_given_a / pr_a if pr_a > 0.0 else p
    beta_n = p * pi.pi_n_given_a / pr_n if pr_n > 0.0 else p
    return BeliefSystem(beta_a_of_a=beta_a, beta_n_of_a=beta_n, pr_a=pr_a)


def _slope(s: NetworkScenario, belief_of_a):
    """Expected route-1 congestion slope under an incident belief in ``[0, 1]``
    (not checked); pure arithmetic, so it serves scalars and numpy arrays."""
    return s.alpha1_a * belief_of_a + s.alpha1_n * (1.0 - belief_of_a)


def _partition(s: NetworkScenario, spread: float, d_n, d_a):
    """Partition value ``g`` from the flow denominators ``_slope + alpha2`` of
    the two signals: the demand-normalized gap between their split-branch
    route-2 flows.  ``g >= lambda_`` selects the informed-switch branch.

    Pure arithmetic, so it serves scalars and numpy arrays alike.
    """
    return spread / (d_n * s.demand) - spread / (d_a * s.demand)


def _checked_flow(f: float, demand: float) -> float:
    if f < -EPS * demand or f > demand * (1.0 + EPS):
        raise ArithmeticError(f"equilibrium flow {f!r} outside [0, {demand!r}]")
    return min(max(f, 0.0), demand)


def solve_equilibrium(s: NetworkScenario, pi: InformationStructure) -> EquilibriumOutcome:
    """Compute the unique equilibrium flows and the costs they induce.

    A tie between the branch conditions is labeled
    :attr:`Branch.INFORMED_SWITCH_ALL`; both branch formulas agree on the
    flows there, so only the label is affected.

    Population costs average over the joint state/signal distribution under
    a canonical decomposition into population strategies; at equilibrium
    every used route costs the same, so the choice does not matter.
    """
    require_valid(s)
    return _solve(s, pi)


def _solve(s: NetworkScenario, pi: InformationStructure) -> EquilibriumOutcome:
    """:func:`solve_equilibrium` for a scenario the caller has validated."""
    beliefs = posterior_beliefs(s, pi)
    pr_a = beliefs.pr_a
    lam, demand, a2, spread = s.lambda_, s.demand, s.alpha2, s.cost_spread
    m_n, m_a = _slope(s, beliefs.beta_n_of_a), _slope(s, beliefs.beta_a_of_a)
    d_n, d_a = m_n + a2, m_a + a2
    g = _partition(s, spread, d_n, d_a)

    if g >= lam:
        branch = Branch.INFORMED_SWITCH_ALL
        f2_n = demand - (spread + lam * demand * pr_a * d_a) / (_slope(s, s.p) + a2)
        f2_a = f2_n + lam * demand
    else:
        branch = Branch.BOTH_SPLIT
        f2_n = demand - spread / d_n
        f2_a = demand - spread / d_a
    f2_n = _checked_flow(f2_n, demand)
    f2_a = _checked_flow(f2_a, demand)

    c1_n, c1_a, c2_n, c2_a = _signal_costs(s, m_n, m_a, f2_n, f2_a)
    q1_n, q1_a, q2, pop1, pop2 = _decompose(s, f2_n, f2_a)
    pr_n, q2_route1 = 1.0 - pr_a, pop2 - q2
    total1 = pr_n * (c1_n * (pop1 - q1_n) + c2_n * q1_n) + pr_a * (
        c1_a * (pop1 - q1_a) + c2_a * q1_a
    )
    total2 = pr_n * (c1_n * q2_route1 + c2_n * q2) + pr_a * (c1_a * q2_route1 + c2_a * q2)
    # An empty population's cost is defined as the other population's.
    cost1 = total1 / pop1 if lam != 0.0 else total2 / pop2
    cost2 = total2 / pop2 if lam != 1.0 else cost1
    return EquilibriumOutcome(
        f2_given_n=f2_n,
        f2_given_a=f2_a,
        f1_given_n=demand - f2_n,
        f1_given_a=demand - f2_a,
        branch=branch,
        g_value=g,
        beliefs=beliefs,
        cost_pop1=cost1,
        cost_pop2=cost2,
        cost_avg=lam * cost1 + (1.0 - lam) * cost2,
    )


def _decompose(s: NetworkScenario, f2_n: float, f2_a: float) -> tuple[float, ...]:
    """Canonical decomposition of flows in ``[0, demand]``: the route-2 masses
    ``(q1_n, q1_a, q2)`` of the informed population under each signal and of
    the uninformed population, then the population masses ``(pop1, pop2)``.

    The choice minimizes ``q1_n`` (then ``q1_a``), which makes outputs
    deterministic; :class:`InfeasibleStrategyError` if none is nonnegative.
    """
    demand, lam = s.demand, s.lambda_
    pop1 = lam * demand
    pop2 = (1.0 - lam) * demand
    diff = f2_a - f2_n
    # Bounds on q1_n from nonnegativity and the population totals.
    lo = max(0.0, -diff, f2_n - pop2)
    hi = min(pop1, pop1 - diff, f2_n)
    if lo > hi + EPS * demand:
        raise InfeasibleStrategyError(
            f"flows (f2_n={f2_n!r}, f2_a={f2_a!r}) admit no nonnegative "
            f"decomposition at lambda_={lam!r}"
        )
    q1_n = min(lo, hi)  # canonical: smallest feasible q1_n
    q1_a = min(max(q1_n + diff, 0.0), pop1)
    q2 = min(max(f2_n - q1_n, 0.0), pop2)
    return q1_n, q1_a, q2, pop1, pop2


def _signal_costs(
    s: NetworkScenario, m_n: float, m_a: float, f2_n: float, f2_a: float
) -> tuple[float, float, float, float]:
    """Expected costs (route 1, route 2) conditional on each signal, from the
    conditional route-1 slopes ``m_n`` and ``m_a``."""
    c1_n = m_n * (s.demand - f2_n) + s.b1
    c1_a = m_a * (s.demand - f2_a) + s.b1
    c2_n = s.alpha2 * f2_n + s.b2
    c2_a = s.alpha2 * f2_a + s.b2
    return c1_n, c1_a, c2_n, c2_a


def verify_wardrop(
    s: NetworkScenario, pi: InformationStructure, flows: tuple[float, float]
) -> VerificationReport:
    """Check the equilibrium conditions on the flow pair ``(f2_n, f2_a)``.

    Flows must lie in ``[0, demand]``, which no NaN does (else
    :class:`DomainError`).  They are decomposed into population strategies,
    and every used route must have minimal expected cost for its population
    (conditional on the signal for informed travelers).  Flows with no
    nonnegative decomposition certify non-equilibrium: their report carries
    that message as its violation and ``max_gap = inf``.
    """
    require_valid(s)
    f2_n, f2_a = map(float, flows)
    slack = EPS * s.demand
    for name, f in (("f2_n", f2_n), ("f2_a", f2_a)):
        if not -slack <= f <= s.demand + slack:
            raise DomainError(f"{name} outside [0, demand]: {f!r}")
    try:
        q1_n, q1_a, q2, pop1, pop2 = _decompose(s, f2_n, f2_a)
    except InfeasibleStrategyError as exc:
        return VerificationReport(violations=(str(exc),), max_gap=float("inf"))

    beliefs = posterior_beliefs(s, pi)
    m_n, m_a = _slope(s, beliefs.beta_n_of_a), _slope(s, beliefs.beta_a_of_a)
    c1_n, c1_a, c2_n, c2_a = _signal_costs(s, m_n, m_a, f2_n, f2_a)
    # Uninformed travelers weigh the per-signal costs by the signal marginals.
    e2_r1 = beliefs.pr_n * c1_n + beliefs.pr_a * c1_a
    e2_r2 = beliefs.pr_n * c2_n + beliefs.pr_a * c2_a

    tol = 1e-7 * s.b2
    violations: list[str] = []
    max_gap = 0.0

    units = (
        ("population 1 / signal n", pop1 - q1_n, q1_n, c1_n, c2_n),
        ("population 1 / signal a", pop1 - q1_a, q1_a, c1_a, c2_a),
        ("population 2", pop2 - q2, q2, e2_r1, e2_r2),
    )
    for label, on_r1, on_r2, cost_r1, cost_r2 in units:
        best = min(cost_r1, cost_r2)
        for route, mass, cost in (("route 1", on_r1, cost_r1), ("route 2", on_r2, cost_r2)):
            gap = cost - best
            if mass > slack and gap > tol:
                max_gap = max(max_gap, gap)
                violations.append(
                    f"{label}: {route} carries {mass:.6g} at cost gap {gap:.6g}"
                )
    return VerificationReport(violations=tuple(violations), max_gap=max_gap)


def average_spillover(s: NetworkScenario, outcome: EquilibriumOutcome) -> float:
    """Realized average route-2 flow above the threshold, from an outcome."""
    beliefs = outcome.beliefs
    return beliefs.pr_a * max(outcome.f2_given_a - s.tau, 0.0) + beliefs.pr_n * max(
        outcome.f2_given_n - s.tau, 0.0
    )
