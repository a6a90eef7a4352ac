"""The planner's problem: pick the signal distribution minimizing spillover.

For low incident priors (``p <= p_bar``) withholding information already
keeps route 2 below the threshold and the spillover is zero.  Above that
prior the optimum always reveals the nominal state truthfully and the
incident-signal probability depends on which of three informed-fraction
regimes applies: full disclosure below ``lambda_low``, partial disclosure
scaled to the informed fraction between the thresholds, and a saturated
structure independent of the fraction above ``lambda_high``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .equilibrium import EquilibriumOutcome, _solve, average_spillover, mean_slope
from .model import (
    EPS,
    DomainError,
    InformationStructure,
    NetworkScenario,
    require_valid,
)


class RegimeError(ValueError):
    """A threshold was requested outside the regime where it is defined."""


class Regime(Enum):
    NO_PERSUASION = "no_persuasion"
    FULL_DISCLOSURE = "full_disclosure"
    PARTIAL_DISCLOSURE = "partial_disclosure"
    SATURATED_DISCLOSURE = "saturated_disclosure"


@dataclass(frozen=True)
class Thresholds:
    """Regime boundaries; the lambda thresholds exist only above ``p_bar``."""

    p_bar: float
    lambda_low: Optional[float]
    lambda_high: Optional[float]


@dataclass(frozen=True)
class DesignSolution:
    regime: Regime
    pi_star: InformationStructure
    outcome: EquilibriumOutcome
    loss: float
    thresholds: Thresholds

    def to_record(self) -> dict[str, object]:
        """Flatten to the stable serialization record."""
        return {
            "regime": self.regime.value,
            "pi_a_a": self.pi_star.pi_a_given_a,
            "pi_n_n": self.pi_star.pi_n_given_n,
            "f2_n": self.outcome.f2_given_n,
            "f2_a": self.outcome.f2_given_a,
            "loss": self.loss,
            "p_bar": self.thresholds.p_bar,
            "lambda_low": self.thresholds.lambda_low,
            "lambda_high": self.thresholds.lambda_high,
            "pr_a": self.outcome.beliefs.pr_a,
            "cost_pop1": self.outcome.cost_pop1,
            "cost_pop2": self.outcome.cost_pop2,
            "cost_avg": self.outcome.cost_avg,
        }


def p_bar(s: NetworkScenario) -> float:
    """Incident-prior threshold below which no information is optimal.

    This is the prior at which the uninformed equilibrium flow on route 2
    equals the spillover threshold; the admissible tau range keeps it in
    [0, 1].
    """
    if s.tau >= s.demand:
        raise DomainError(f"tau={s.tau!r} must be below demand={s.demand!r}")
    inner = s.cost_spread / (s.demand - s.tau) - s.alpha2 - s.alpha1_n
    return inner / (s.alpha1_a - s.alpha1_n)


def lambda_thresholds(s: NetworkScenario) -> tuple[float, float]:
    """Informed-fraction regime boundaries ``(lambda_low, lambda_high)``.

    Defined only when the prior exceeds ``p_bar``; within that regime the
    thresholds satisfy ``0 < lambda_low <= lambda_high < 1``, since

        lambda_high - lambda_low = (1 - p) * (alpha1_n + alpha2) * (tau - tau_low)
                                   / (p * D * (alpha1_a + alpha2))

    with ``tau_low = tau_bounds(s)[0]``.  They coincide at ``p = 1`` and at
    ``tau = tau_low``, where no fraction gets partial disclosure.
    """
    require_valid(s)
    t = _thresholds(s)
    if t.lambda_low is None:
        raise RegimeError(
            f"lambda thresholds are undefined for p={s.p!r} <= p_bar={t.p_bar:.12g}"
        )
    return t.lambda_low, t.lambda_high


def _thresholds(s: NetworkScenario) -> Thresholds:
    """Regime boundaries of a scenario the caller has validated."""
    pb = p_bar(s)
    # Ties classify as the no-persuasion regime.
    if s.p <= pb + EPS:
        return Thresholds(p_bar=pb, lambda_low=None, lambda_high=None)
    incident_d = s.alpha1_a + s.alpha2
    lam_low = _excess(s) / (s.demand * s.p * incident_d)
    lam_high = 1.0 - s.cost_spread / (incident_d * s.demand) - s.tau / s.demand
    if not (-EPS < lam_low <= lam_high + EPS and lam_high < 1.0 + EPS):
        raise ArithmeticError(
            f"threshold ordering violated: lambda_low={lam_low!r}, lambda_high={lam_high!r}"
        )
    return Thresholds(p_bar=pb, lambda_low=lam_low, lambda_high=lam_high)


def _excess(s: NetworkScenario) -> float:
    """Numerator shared by ``lambda_low``, both partial structures and their loss.

    It is positive exactly when the prior exceeds ``p_bar``.
    """
    prior_d = mean_slope(s.p, s) + s.alpha2
    return (s.demand - s.tau) * prior_d - s.cost_spread


def optimal_design(s: NetworkScenario) -> DesignSolution:
    """Solve the planner's problem in closed form.

    The returned solution carries the equilibrium induced by the optimal
    structure at the scenario's informed fraction; the closed-form loss is
    cross-checked against the spillover recomputed from those flows.
    """
    require_valid(s)
    thresholds = _thresholds(s)
    lam = s.lambda_
    if thresholds.lambda_low is None:
        regime, pi_aa, loss = Regime.NO_PERSUASION, 0.0, 0.0
    elif lam < thresholds.lambda_low:
        regime, pi_aa = Regime.FULL_DISCLOSURE, 1.0
        prior_d = mean_slope(s.p, s) + s.alpha2
        base = s.demand - s.tau - s.cost_spread / prior_d
        slope_gap = s.alpha1_a - s.alpha1_n
        loss = base - s.p * (1.0 - s.p) * slope_gap * lam * s.demand / prior_d
    else:
        incident_d = s.alpha1_a + s.alpha2
        if lam < thresholds.lambda_high:
            regime = Regime.PARTIAL_DISCLOSURE
            scale = lam * s.demand * incident_d
        else:
            regime = Regime.SATURATED_DISCLOSURE
            scale = (s.demand - s.tau) * incident_d - s.cost_spread
        excess = _excess(s)
        pi_aa = excess / (scale * s.p)
        loss = excess / incident_d
    if not -EPS <= pi_aa <= 1.0 + EPS:
        raise ArithmeticError(f"derived signal probability outside [0, 1]: {pi_aa!r}")
    pi_star = InformationStructure(min(max(pi_aa, 0.0), 1.0), 1.0)

    outcome = _solve(s, pi_star)
    realized = average_spillover(s, outcome)
    if abs(realized - loss) > EPS * s.demand:
        raise ArithmeticError(
            f"closed-form loss {loss!r} disagrees with realized spillover {realized!r}"
        )
    return DesignSolution(
        regime=regime, pi_star=pi_star, outcome=outcome, loss=loss, thresholds=thresholds
    )
