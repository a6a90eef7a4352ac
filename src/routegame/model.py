"""Domain types, parameter validation, and scenario documents.

The network is a single origin-destination pair served by two parallel
routes.  Route 1 is the short route but is incident-prone: its congestion
slope jumps from ``alpha1_n`` (nominal) to ``alpha1_a`` (incident), with
prior incident probability ``p``.  Route 2 is immune to incidents.  A
planner who observes the realized state may send a noisy binary signal to
a fraction ``lambda_`` of the travelers, and is judged by the average flow
on route 2 in excess of the threshold ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

__all__ = [
    "EPS", "ConvergenceError", "DomainError", "InformationStructure", "InvalidScenarioError",
    "NetworkScenario", "ScenarioParseError", "ValidationReport", "load_scenario",
    "parse_scenario", "tau_bounds", "validate_scenario",
]

EPS = 1e-9
"""Absolute tolerance for comparisons of normalized quantities.

Flows are compared after dividing by demand; probabilities as-is.
"""


class DomainError(ValueError):
    """An argument violates an operation's domain contract."""


class ScenarioParseError(ValueError):
    """A scenario document is malformed (bad syntax, keys, or numbers)."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of scenario validation: one message per violated invariant."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "scenario valid"
        return "\n".join(self.violations)


class InvalidScenarioError(ValueError):
    """A solver was handed a scenario whose invariants do not hold."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("invalid scenario: " + "; ".join(report.violations))


class ConvergenceError(RuntimeError):
    """The dynamics ran out of iterations or restarts disagreed."""


@dataclass(frozen=True)
class NetworkScenario:
    """All exogenous parameters of the two-route signaling game.

    Attributes
    ----------
    alpha1_a, alpha1_n:
        Congestion slope of route 1 in the incident ("a") and nominal
        ("n") state.
    alpha2:
        Congestion slope of route 2 (state-independent).
    b1, b2:
        Free-flow travel times; route 1 is the short route (b1 < b2).
    demand:
        Total traveler mass D.
    p:
        Prior probability of the incident state.
    lambda_:
        Fraction of travelers who receive the planner's signal
        (population 1); the rest are population 2.
    tau:
        Flow threshold on route 2 above which traffic counts as spillover.
    """

    alpha1_a: float
    alpha1_n: float
    alpha2: float
    b1: float
    b2: float
    demand: float
    p: float
    lambda_: float
    tau: float

    @property
    def cost_spread(self) -> float:
        """``alpha2 * D + b2 - b1``, the recurring flow-formula numerator."""
        return self.alpha2 * self.demand + self.b2 - self.b1

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class InformationStructure:
    """Conditional signal distribution, stored via its two free probabilities.

    Rows are states, columns signals; row-stochasticity is structural:
    ``pi(n|a) = 1 - pi(a|a)`` and ``pi(a|n) = 1 - pi(n|n)``.  Feasibility
    additionally requires the nominal signal to be (weakly) more likely in
    the nominal state, ``pi(n|n) >= pi(n|a)``.
    """

    pi_a_given_a: float
    pi_n_given_n: float

    def __post_init__(self) -> None:
        if not -EPS <= self.pi_a_given_a <= 1.0 + EPS:
            raise DomainError(f"pi_a_given_a must lie in [0, 1], got {self.pi_a_given_a!r}")
        if not -EPS <= self.pi_n_given_n <= 1.0 + EPS:
            raise DomainError(f"pi_n_given_n must lie in [0, 1], got {self.pi_n_given_n!r}")
        if self.pi_n_given_n < 1.0 - self.pi_a_given_a - EPS:
            raise DomainError(
                "infeasible signal distribution: requires "
                f"pi_n_given_n >= pi_n_given_a, got {self.pi_n_given_n!r} < "
                f"{1.0 - self.pi_a_given_a!r}"
            )

    @property
    def pi_n_given_a(self) -> float:
        return 1.0 - self.pi_a_given_a

    @property
    def pi_a_given_n(self) -> float:
        return 1.0 - self.pi_n_given_n

    @classmethod
    def full_revelation(cls) -> "InformationStructure":
        """The perfectly informative structure: signal always equals the state."""
        return cls(1.0, 1.0)

    @classmethod
    def no_information(cls) -> "InformationStructure":
        """Canonical uninformative structure: the nominal signal is always sent."""
        return cls(0.0, 1.0)


def tau_bounds(s: NetworkScenario) -> tuple[float, float]:
    """Admissible range for the spillover threshold.

    The bounds are the route-2 equilibrium flows when everyone knows the
    state to be nominal (lower) or incident (upper), so any threshold in
    between is exceeded under complete information exactly in the incident
    state.
    """
    spread = s.cost_spread
    low = s.demand - spread / (s.alpha1_n + s.alpha2)
    high = s.demand - spread / (s.alpha1_a + s.alpha2)
    return low, high


def validate_scenario(s: NetworkScenario) -> ValidationReport:
    """Check every scenario invariant and report all violations.

    Solvers refuse scenarios whose report is non-empty; this function
    never raises.  Slopes, free-flow times, ``demand`` and ``tau`` must be
    positive and finite.  ``tau`` must lie in ``tau_bounds(s)``, the upper
    bound loosened by ``EPS * demand`` but kept below ``demand`` (at steep
    incident slopes the slack would reach it); the lower bound is exact,
    because below it the two fraction thresholds invert and no design is
    consistent.
    """
    v: list[str] = []
    positive = ("alpha1_a", "alpha1_n", "alpha2", "b1", "b2", "demand", "tau")
    in_range = True
    for name in positive:
        val = getattr(s, name)
        if not 0 < val < math.inf:
            in_range = False
            v.append(f"{name} must be {'positive' if val <= 0 else 'finite'}, got {val!r}")
    for name in ("p", "lambda_"):
        val = getattr(s, name)
        if not 0.0 <= val <= 1.0:
            v.append(f"{name} must lie in [0, 1], got {val!r}")

    if not s.b1 < s.b2:
        v.append(f"b1 < b2 violated: b1={s.b1!r}, b2={s.b2!r}")
    if not s.alpha1_a > s.alpha2:
        v.append(f"alpha1_a > alpha2 violated: alpha1_a={s.alpha1_a!r}, alpha2={s.alpha2!r}")
    if not s.alpha2 > s.alpha1_n:
        v.append(f"alpha2 > alpha1_n violated: alpha2={s.alpha2!r}, alpha1_n={s.alpha1_n!r}")

    if s.alpha1_n > 0 and s.b1 < s.b2:
        bound = (s.b2 - s.b1) / s.alpha1_n
        if not s.demand > bound:
            v.append(
                f"demand > (b2 - b1)/alpha1_n violated: demand={s.demand!r}, bound={bound:.12g}"
            )

    # The tau range is only meaningful once the slope ordering holds.
    if in_range and s.alpha1_a > s.alpha2 > s.alpha1_n:
        low, high = tau_bounds(s)
        if s.tau < low:
            v.append(f"tau below admissible range: tau={s.tau!r} < {low:.12g}")
        elif s.tau > high + EPS * s.demand or s.tau >= s.demand:
            v.append(f"tau above admissible range: tau={s.tau!r} > {high:.12g}")

    return ValidationReport(tuple(v))


def require_valid(s: NetworkScenario) -> None:
    """Raise :class:`InvalidScenarioError` unless the scenario validates."""
    report = validate_scenario(s)
    if not report.ok:
        raise InvalidScenarioError(report)


# --- scenario documents ----------------------------------------------------
#
# A scenario file is a flat key/value document, one `key = value` line per
# field, `#` comments allowed.  Exactly the nine field names of
# NetworkScenario are accepted.

SCENARIO_FIELDS = tuple(f.name for f in fields(NetworkScenario))


def parse_scenario(text: str) -> NetworkScenario:
    """Parse a scenario document; reject unknown, duplicate, or missing keys."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in SCENARIO_FIELDS:
            raise ScenarioParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs)
        except ValueError:
            raise ScenarioParseError(
                f"line {lineno}: invalid number for {key!r}: {rhs!r}"
            ) from None
    missing = [k for k in SCENARIO_FIELDS if k not in values]
    if missing:
        raise ScenarioParseError("missing keys: " + ", ".join(missing))
    return NetworkScenario(**values)


def load_scenario(path: str | Path) -> NetworkScenario:
    """Read and parse a UTF-8 scenario file; other bytes are a parse error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not valid UTF-8 at byte {exc.start}: {exc.reason}") from None
    return parse_scenario(text)
