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

from .model import EPS, DomainError, InformationStructure, NetworkScenario, require_valid

__all__ = [
    "BeliefSystem", "Branch", "EquilibriumOutcome", "VerificationReport", "posterior_beliefs",
    "solve_equilibrium", "verify_wardrop",
]


class Branch(Enum):
    """Which equilibrium branch the flows follow."""

    INFORMED_SWITCH_ALL = "informed_switch_all"
    BOTH_SPLIT = "both_split"


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior incident probabilities and signal marginals.

    Only the incident posteriors are stored; the nominal ones are their
    complements, ``beta_s(n) = 1 - beta_s(a)``, and signal n's is ``1 - pr_a``.
    When a signal has zero probability its posterior is the prior, which
    keeps downstream quantities well defined and continuous as the
    structure approaches degeneracy.
    """

    beta_a_of_a: float
    beta_n_of_a: float
    pr_a: float

    def __post_init__(self) -> None:
        for name in ("beta_a_of_a", "beta_n_of_a", "pr_a"):
            val = getattr(self, name)
            if not -EPS <= val <= 1.0 + EPS:
                raise DomainError(f"{name} must lie in [0, 1], got {val!r}")
        if self.beta_a_of_a < self.beta_n_of_a - EPS:
            raise DomainError(
                "posterior ordering violated: "
                f"beta_a_of_a={self.beta_a_of_a!r} < beta_n_of_a={self.beta_n_of_a!r}"
            )


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

    Zero-probability signals keep the prior as their posterior.  So do both
    signals of a pair with ``pi(a|n) > pi(a|a)``, which only the ``EPS``
    feasibility slack of :class:`InformationStructure` admits: it is solved
    as the uninformative structure it rounds to.
    """
    return BeliefSystem(*_posteriors(s, pi.pi_a_given_a, pi.pi_n_given_n))


def _posteriors(s: NetworkScenario, pi_aa: float, pi_nn: float) -> tuple[float, float, float]:
    """:func:`posterior_beliefs` for the structure ``(pi_aa, pi_nn)``, its
    :class:`BeliefSystem` fields ``(beta_a_of_a, beta_n_of_a, pr_a)`` as a tuple.

    Beliefs outside the valid range are passed to :class:`BeliefSystem`, which
    raises its :class:`DomainError` or accepts them within its ``EPS`` slack.
    """
    p, pi_an = s.p, 1.0 - pi_nn
    pr_a = p * pi_aa + (1.0 - p) * pi_an
    # Exactly pi_nn < 1 - pi_aa: neither rounded test can hold falsely, and one is exact.
    if pi_nn < 1.0 - pi_aa or pi_an > pi_aa:
        beta_a = beta_n = p
    else:
        pr_n = 1.0 - pr_a
        if pr_n < 2.0**-20:  # a rare signal n: 1 - pr_a cancels, the joint terms do not
            pr_n = p * (1.0 - pi_aa) + (1.0 - p) * pi_nn
        beta_a = p * pi_aa / pr_a if pr_a > 0.0 else p
        beta_n = p * (1.0 - pi_aa) / pr_n if pr_n > 0.0 else p
    if not (0.0 <= beta_n <= beta_a <= 1.0 and 0.0 <= pr_a <= 1.0):
        BeliefSystem(beta_a, beta_n, pr_a)
    return beta_a, beta_n, pr_a


def _slope(s: NetworkScenario, belief_of_a):
    """Expected route-1 congestion slope under an incident belief in ``[0, 1]``
    (not checked), for scalar floats."""
    return s.alpha1_a * belief_of_a + s.alpha1_n * (1.0 - belief_of_a)


def _checked_flow(f: float, demand: float) -> float:
    if f < -EPS * demand or f > demand * (1.0 + EPS):
        raise ArithmeticError(f"equilibrium flow {f!r} outside [0, {demand!r}]")
    # min(max(f, 0.0), demand) by comparison, which keeps the builtins'
    # results (first argument on ties, NaN, signed zero) at a fraction of
    # the call cost; so do the clips of _decompose and _spillover.
    if 0.0 > f:
        f = 0.0
    return demand if demand < f else f


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
    return _outcome(_solve(s, pi.pi_a_given_a, pi.pi_n_given_n))


def _outcome(fields: tuple) -> EquilibriumOutcome:
    """The :class:`EquilibriumOutcome` of a field tuple from :func:`_solve`."""
    f2_n, f2_a, f1_n, f1_a, branch, g, beliefs, cost1, cost2, cost_avg = fields
    return EquilibriumOutcome(
        f2_n, f2_a, f1_n, f1_a, branch, g, BeliefSystem(*beliefs), cost1, cost2, cost_avg
    )


def _solve(s: NetworkScenario, pi_aa: float, pi_nn: float) -> tuple:
    """The :class:`EquilibriumOutcome` fields, in order, of :func:`solve_equilibrium`
    for the structure ``(pi_aa, pi_nn)`` and a scenario the caller has validated;
    the beliefs field is the tuple of :func:`_posteriors`."""
    beliefs = beta_a, beta_n, pr_a = _posteriors(s, pi_aa, pi_nn)
    lam, demand, a2, spread = s.lambda_, s.demand, s.alpha2, s.cost_spread
    m_n, m_a = _slope(s, beta_n), _slope(s, beta_a)
    d_n, d_a = m_n + a2, m_a + a2
    # Partition value, the split-branch flow gap over D; g >= lambda_ selects the switch branch.
    g = spread / (d_n * demand) - spread / (d_a * demand)

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
    return (
        f2_n, f2_a, demand - f2_n, demand - f2_a, branch, g, beliefs,
        cost1, cost2, lam * cost1 + (1.0 - lam) * cost2,
    )


def _solved(solved: dict, s: NetworkScenario, pi_aa: float) -> tuple:
    """``_solve(s, pi_aa, 1.0)`` memoized in ``solved`` by ``pi_aa``: each caller's
    structure reveals the nominal state, and float keys match and hash alike exactly
    when the pairs ``(pi_aa, 1.0)`` would, ``-0.0`` included.  ``_solve`` never reads
    ``tau``, so ``solved`` may hold scenarios differing from ``s`` in it alone."""
    outcome = solved.get(pi_aa)
    if outcome is None:
        outcome = solved[pi_aa] = _solve(s, pi_aa, 1.0)
    return outcome


def _decompose(s: NetworkScenario, f2_n: float, f2_a: float) -> tuple[float, ...]:
    """Canonical decomposition of flows in ``[0, demand]``: the route-2 masses
    ``(q1_n, q1_a, q2)`` of the informed population under each signal and of
    the uninformed population, then the population masses ``(pop1, pop2)``.

    The choice minimizes ``q1_n`` (then ``q1_a``), which makes outputs
    deterministic; ``ArithmeticError`` if none is nonnegative, which for
    flows :func:`_solve` derived is an internal-check failure.
    """
    demand, lam = s.demand, s.lambda_
    pop1 = lam * demand
    pop2 = (1.0 - lam) * demand
    diff = f2_a - f2_n
    # Bounds on q1_n from nonnegativity and the population totals:
    # lo = max(0.0, -diff, f2_n - pop2), hi = min(pop1, pop1 - diff, f2_n).
    lo, x = 0.0, -diff
    if x > lo:
        lo = x
    x = f2_n - pop2
    if x > lo:
        lo = x
    hi, x = pop1, pop1 - diff
    if x < hi:
        hi = x
    if f2_n < hi:
        hi = f2_n
    if lo > hi + EPS * demand:
        raise ArithmeticError(
            f"flows (f2_n={f2_n!r}, f2_a={f2_a!r}) admit no nonnegative "
            f"decomposition at lambda_={lam!r}"
        )
    q1_n = hi if hi < lo else lo  # canonical: smallest feasible q1_n
    q1_a = q1_n + diff
    if 0.0 > q1_a:
        q1_a = 0.0
    if pop1 < q1_a:
        q1_a = pop1
    q2 = f2_n - q1_n
    if 0.0 > q2:
        q2 = 0.0
    if pop2 < q2:
        q2 = pop2
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
    except ArithmeticError as exc:
        return VerificationReport(violations=(str(exc),), max_gap=float("inf"))

    beta_a, beta_n, pr_a = _posteriors(s, pi.pi_a_given_a, pi.pi_n_given_n)
    m_n, m_a = _slope(s, beta_n), _slope(s, beta_a)
    c1_n, c1_a, c2_n, c2_a = _signal_costs(s, m_n, m_a, f2_n, f2_a)
    # Uninformed travelers weigh the per-signal costs by the signal marginals.
    pr_n = 1.0 - pr_a
    e2_r1 = pr_n * c1_n + pr_a * c1_a
    e2_r2 = pr_n * c2_n + pr_a * c2_a

    # A cost gap at a true equilibrium is rounding in costs up to about
    # alpha1_a * D + b2, so the tolerance is relative to that cost scale.
    tol = 1e-7 * max(s.alpha1_a * s.demand, s.b2)
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


def _spillover(s: NetworkScenario, f2_n: float, f2_a: float, pr_a: float) -> float:
    over_a, over_n = f2_a - s.tau, f2_n - s.tau
    if 0.0 > over_a:
        over_a = 0.0
    if 0.0 > over_n:
        over_n = 0.0
    return pr_a * over_a + (1.0 - pr_a) * over_n
