"""Posterior beliefs, equilibrium route flows, verification, and costs.

Given a scenario and a signal distribution, the unique equilibrium falls
into one of two branches.  When the belief gap induced by the two signals
is large relative to the informed fraction (``partition_value >= lambda_``),
every informed traveler switches route with the signal and the uninformed
population splits.  Otherwise both populations split and the flows no
longer depend on the informed fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .model import (
    EPS,
    DomainError,
    InformationStructure,
    NetworkScenario,
    require_valid,
)


class Branch(Enum):
    """Which equilibrium branch the flows follow."""

    INFORMED_SWITCH_ALL = "informed_switch_all"
    BOTH_SPLIT = "both_split"


class InfeasibleStrategyError(ValueError):
    """No nonnegative strategy decomposition reproduces the given flows."""


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior incident probabilities and signal marginals.

    Complements are derived: ``beta_s(n) = 1 - beta_s(a)`` and
    ``pr_n = 1 - pr_a``.  When a signal has zero probability its posterior
    is the prior, which keeps downstream quantities well defined and
    continuous as the structure approaches degeneracy.
    """

    beta_a_of_a: float
    beta_n_of_a: float
    pr_a: float

    def __post_init__(self) -> None:
        for name in ("beta_a_of_a", "beta_n_of_a", "pr_a"):
            v = getattr(self, name)
            if not -EPS <= v <= 1.0 + EPS:
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
        if self.beta_a_of_a < self.beta_n_of_a - EPS:
            raise DomainError(
                "posterior ordering violated: "
                f"beta_a_of_a={self.beta_a_of_a!r} < beta_n_of_a={self.beta_n_of_a!r}"
            )

    @property
    def pr_n(self) -> float:
        return 1.0 - self.pr_a

    @property
    def beta_a_of_n(self) -> float:
        return 1.0 - self.beta_a_of_a

    @property
    def beta_n_of_n(self) -> float:
        return 1.0 - self.beta_n_of_a


@dataclass(frozen=True)
class StrategyProfile:
    """Per-population route assignment consistent with a flow vector.

    Population 1 conditions on the signal; population 2 cannot.  Route-1
    masses are derived from the population totals.
    """

    q1_route2_n: float
    q1_route2_a: float
    q2_route2: float
    pop1_mass: float
    pop2_mass: float

    @property
    def q1_route1_n(self) -> float:
        return self.pop1_mass - self.q1_route2_n

    @property
    def q1_route1_a(self) -> float:
        return self.pop1_mass - self.q1_route2_a

    @property
    def q2_route1(self) -> float:
        return self.pop2_mass - self.q2_route2


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

    feasible: bool
    violations: tuple[str, ...] = ()
    max_gap: float = 0.0

    @property
    def ok(self) -> bool:
        return self.feasible and not self.violations


FlowsLike = Union[EquilibriumOutcome, Sequence[float]]


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


def mean_slope(belief_of_a: float, s: NetworkScenario) -> float:
    """Expected route-1 congestion slope under an incident belief."""
    if not -EPS <= belief_of_a <= 1.0 + EPS:
        raise DomainError(f"belief must lie in [0, 1], got {belief_of_a!r}")
    return s.alpha1_a * belief_of_a + s.alpha1_n * (1.0 - belief_of_a)


def _partition(s: NetworkScenario, beta_n, beta_a):
    """Partition value from the two incident posteriors.

    Pure arithmetic, so it serves scalars and numpy arrays alike.
    """
    spread = s.cost_spread
    d_n = s.alpha1_a * beta_n + s.alpha1_n * (1.0 - beta_n) + s.alpha2
    d_a = s.alpha1_a * beta_a + s.alpha1_n * (1.0 - beta_a) + s.alpha2
    return spread / (d_n * s.demand) - spread / (d_a * s.demand)


def partition_value(s: NetworkScenario, pi: InformationStructure) -> float:
    """Demand-normalized gap between the split-branch flows of the two signals.

    Comparing this value against the informed fraction selects the
    equilibrium branch; it is nonnegative because the incident posterior
    is higher after the incident signal.
    """
    beliefs = posterior_beliefs(s, pi)
    return _partition(s, beliefs.beta_n_of_a, beliefs.beta_a_of_a)


def _checked_flow(f: float, demand: float) -> float:
    if f < -EPS * demand or f > demand * (1.0 + EPS):
        raise ArithmeticError(f"equilibrium flow {f!r} outside [0, {demand!r}]")
    return min(max(f, 0.0), demand)


def solve_equilibrium(s: NetworkScenario, pi: InformationStructure) -> EquilibriumOutcome:
    """Compute the unique equilibrium flows and the costs they induce.

    A tie between the branch conditions is labeled
    :attr:`Branch.INFORMED_SWITCH_ALL`; both branch formulas agree on the
    flows there, so only the label is affected.
    """
    require_valid(s)
    return _solve(s, pi)


def _solve(s: NetworkScenario, pi: InformationStructure) -> EquilibriumOutcome:
    """:func:`solve_equilibrium` for a scenario the caller has validated."""
    beliefs = posterior_beliefs(s, pi)
    g = _partition(s, beliefs.beta_n_of_a, beliefs.beta_a_of_a)
    lam, demand, spread = s.lambda_, s.demand, s.cost_spread

    if g >= lam:
        branch = Branch.INFORMED_SWITCH_ALL
        d_a = mean_slope(beliefs.beta_a_of_a, s) + s.alpha2
        d_prior = mean_slope(s.p, s) + s.alpha2
        f2_n = demand - (spread + lam * demand * beliefs.pr_a * d_a) / d_prior
        f2_a = f2_n + lam * demand
    else:
        branch = Branch.BOTH_SPLIT
        f2_n = demand - spread / (mean_slope(beliefs.beta_n_of_a, s) + s.alpha2)
        f2_a = demand - spread / (mean_slope(beliefs.beta_a_of_a, s) + s.alpha2)

    f2_n = _checked_flow(f2_n, demand)
    f2_a = _checked_flow(f2_a, demand)
    cost1, cost2, cost_avg = _population_costs(s, beliefs, f2_n, f2_a)
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
        cost_avg=cost_avg,
    )


def _recover(s: NetworkScenario, f2_n: float, f2_a: float) -> StrategyProfile:
    demand = s.demand
    slack = EPS * demand
    for name, f in (("f2_n", f2_n), ("f2_a", f2_a)):
        if f < -slack or f > demand + slack:
            raise DomainError(f"{name} outside [0, demand]: {f!r}")

    pop1 = s.lambda_ * demand
    pop2 = (1.0 - s.lambda_) * demand
    diff = f2_a - f2_n
    # Bounds on q1_route2_n from nonnegativity and the population totals.
    lo = max(0.0, -diff, f2_n - pop2)
    hi = min(pop1, pop1 - diff, f2_n)
    if lo > hi + slack:
        raise InfeasibleStrategyError(
            f"flows (f2_n={f2_n!r}, f2_a={f2_a!r}) admit no nonnegative "
            f"decomposition at lambda_={s.lambda_!r}"
        )
    q1_n = min(lo, hi)  # canonical: smallest feasible q1_route2_n
    q1_a = min(max(q1_n + diff, 0.0), pop1)
    q2 = min(max(f2_n - q1_n, 0.0), pop2)
    return StrategyProfile(
        q1_route2_n=q1_n,
        q1_route2_a=q1_a,
        q2_route2=q2,
        pop1_mass=pop1,
        pop2_mass=pop2,
    )


def recover_strategies(s: NetworkScenario, outcome: FlowsLike) -> StrategyProfile:
    """Decompose per-signal flows into feasible population strategies.

    The decomposition can be under-determined; the canonical choice
    minimizes the informed mass sent to route 2 under the nominal signal
    (then under the incident signal), which makes outputs deterministic.
    Equilibrium costs do not depend on the choice.
    """
    require_valid(s)
    f2_n, f2_a = _flows_of(outcome)
    return _recover(s, f2_n, f2_a)


def _flows_of(outcome: FlowsLike) -> tuple[float, float]:
    if isinstance(outcome, EquilibriumOutcome):
        return outcome.f2_given_n, outcome.f2_given_a
    f2_n, f2_a = outcome
    return float(f2_n), float(f2_a)


def _signal_costs(
    s: NetworkScenario, beliefs: BeliefSystem, f2_n: float, f2_a: float
) -> tuple[float, float, float, float]:
    """Expected costs (route 1, route 2) conditional on each signal."""
    c1_n = mean_slope(beliefs.beta_n_of_a, s) * (s.demand - f2_n) + s.b1
    c1_a = mean_slope(beliefs.beta_a_of_a, s) * (s.demand - f2_a) + s.b1
    c2_n = s.alpha2 * f2_n + s.b2
    c2_a = s.alpha2 * f2_a + s.b2
    return c1_n, c1_a, c2_n, c2_a


def _population_costs(
    s: NetworkScenario, beliefs: BeliefSystem, f2_n: float, f2_a: float
) -> tuple[float, float, float]:
    """Average experienced cost of each population and their blend.

    Costs are averaged over the joint state/signal distribution using the
    canonical strategy decomposition; at equilibrium every used route has
    the same expected cost, so the decomposition does not matter.  When a
    population is empty its cost is defined as the other population's.
    """
    profile = _recover(s, f2_n, f2_a)
    c1_n, c1_a, c2_n, c2_a = _signal_costs(s, beliefs, f2_n, f2_a)
    pr_n, pr_a = beliefs.pr_n, beliefs.pr_a

    pop1_total = pr_n * (c1_n * profile.q1_route1_n + c2_n * profile.q1_route2_n) + pr_a * (
        c1_a * profile.q1_route1_a + c2_a * profile.q1_route2_a
    )
    pop2_total = pr_n * (c1_n * profile.q2_route1 + c2_n * profile.q2_route2) + pr_a * (
        c1_a * profile.q2_route1 + c2_a * profile.q2_route2
    )

    lam = s.lambda_
    if lam == 0.0:
        cost2 = pop2_total / profile.pop2_mass
        cost1 = cost2
    elif lam == 1.0:
        cost1 = pop1_total / profile.pop1_mass
        cost2 = cost1
    else:
        cost1 = pop1_total / profile.pop1_mass
        cost2 = pop2_total / profile.pop2_mass
    return cost1, cost2, lam * cost1 + (1.0 - lam) * cost2


def verify_wardrop(
    s: NetworkScenario, pi: InformationStructure, outcome: FlowsLike
) -> VerificationReport:
    """Check the equilibrium conditions on a flow vector.

    Recovers a feasible strategy profile, then requires every used route
    to have minimal expected cost for its population (conditional on the
    signal for informed travelers).  Unrepresentable flows are reported as
    infeasible rather than raised, since they certify non-equilibrium.
    """
    require_valid(s)
    f2_n, f2_a = _flows_of(outcome)
    try:
        profile = _recover(s, f2_n, f2_a)
    except InfeasibleStrategyError as exc:
        return VerificationReport(feasible=False, violations=(str(exc),), max_gap=float("inf"))

    beliefs = posterior_beliefs(s, pi)
    c1_n, c1_a, c2_n, c2_a = _signal_costs(s, beliefs, f2_n, f2_a)
    # Uninformed travelers weigh the per-signal costs by the signal marginals.
    e2_r1 = beliefs.pr_n * c1_n + beliefs.pr_a * c1_a
    e2_r2 = beliefs.pr_n * c2_n + beliefs.pr_a * c2_a

    tol = 1e-7 * s.b2
    used_eps = EPS * s.demand
    violations: list[str] = []
    max_gap = 0.0

    units = (
        ("population 1 / signal n", profile.q1_route1_n, profile.q1_route2_n, c1_n, c2_n),
        ("population 1 / signal a", profile.q1_route1_a, profile.q1_route2_a, c1_a, c2_a),
        ("population 2", profile.q2_route1, profile.q2_route2, e2_r1, e2_r2),
    )
    for label, on_r1, on_r2, cost_r1, cost_r2 in units:
        best = min(cost_r1, cost_r2)
        for route, mass, cost in (("route 1", on_r1, cost_r1), ("route 2", on_r2, cost_r2)):
            gap = cost - best
            if mass > used_eps and gap > tol:
                max_gap = max(max_gap, gap)
                violations.append(
                    f"{label}: {route} carries {mass:.6g} at cost gap {gap:.6g}"
                )
    return VerificationReport(feasible=True, violations=tuple(violations), max_gap=max_gap)


def average_spillover(s: NetworkScenario, outcome: EquilibriumOutcome) -> float:
    """Realized average route-2 flow above the threshold, from an outcome."""
    beliefs = outcome.beliefs
    return beliefs.pr_a * max(outcome.f2_given_a - s.tau, 0.0) + beliefs.pr_n * max(
        outcome.f2_given_n - s.tau, 0.0
    )
