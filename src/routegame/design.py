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

import math
from dataclasses import dataclass
from enum import Enum

from .equilibrium import EquilibriumOutcome, _outcome, _slope, _solve, _solved, _spillover
from .model import EPS, InformationStructure, NetworkScenario, require_valid, tau_bounds

__all__ = [
    "DesignSolution", "Regime", "RegimeError", "Thresholds", "lambda_thresholds",
    "optimal_design", "p_bar",
]


# The float optimal pi_aa lies within this many ulps of the exact one: excess / (scale * p)
# carries 7 + 5 + 1 unit roundoffs where neither difference cancels (argument in CHANGES.md).
_PI_AA_ULPS = 13


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
    lambda_low: float | None
    lambda_high: float | None


@dataclass(frozen=True)
class DesignSolution:
    """The optimal signal policy of a scenario, its regime, the equilibrium it
    induces, its spillover loss and the regime thresholds."""

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
    require_valid(s)
    return _p_bar(s, s.cost_spread)


def _p_bar(s: NetworkScenario, spread: float) -> float:
    inner = spread / (s.demand - s.tau) - s.alpha2 - s.alpha1_n
    return inner / (s.alpha1_a - s.alpha1_n)


def lambda_thresholds(s: NetworkScenario) -> tuple[float, float]:
    """The thresholds ``(lambda_low, lambda_high)`` :func:`optimal_design` reports.

    Defined only when the prior exceeds ``p_bar``; there

        lambda_high - lambda_low = (1 - p) * (alpha1_n + alpha2) * (tau - tau_low)
                                   / (p * D * (alpha1_a + alpha2))

    with ``tau_low = tau_bounds(s)[0]``, and ``-EPS < lambda_low <= lambda_high + EPS``.
    They coincide at ``p = 1`` and at ``tau = tau_low``, where no fraction
    gets partial disclosure and rounding can leave ``lambda_low`` up to
    ``EPS`` above ``lambda_high``.
    """
    require_valid(s)
    pb, lam_low, lam_high = _closed_form(s)[3]
    if lam_low is None:
        raise RegimeError(f"lambda thresholds are undefined for p={s.p!r} <= p_bar={pb:.12g}")
    return lam_low, lam_high


def _closed_form(s: NetworkScenario) -> tuple[str, float, float, tuple]:
    """The :class:`Regime` value (its word, such as ``"partial_disclosure"``), optimal
    ``pi(a|a)``, loss and the :class:`Thresholds` fields of a validated scenario.

    ``excess``, positive exactly above ``p_bar``, is the numerator of
    ``lambda_low``, both partial structures and their loss."""
    spread = s.cost_spread
    pb = _p_bar(s, spread)
    prior_d = _slope(s, s.p) + s.alpha2
    # No persuasion at or below p_bar or while the uninformed route-2 flow stays at or
    # below tau; the two tests round apart near p = 1, and ties classify as no persuasion.
    if s.p <= pb or s.demand - spread / prior_d <= s.tau:
        return "no_persuasion", 0.0, 0.0, (pb, None, None)
    excess = (s.demand - s.tau) * prior_d - spread
    incident_d = s.alpha1_a + s.alpha2
    lam_low = excess / (s.demand * s.p * incident_d)
    lam_high = 1.0 - spread / (incident_d * s.demand) - s.tau / s.demand
    if not -EPS < lam_low <= lam_high + EPS:
        lam_low = _gap_lambda_low(s, lam_high)
    if not (-EPS < lam_low <= lam_high + EPS and lam_high < 1.0 + EPS):
        raise ArithmeticError(
            f"threshold ordering violated: lambda_low={lam_low!r}, lambda_high={lam_high!r}"
        )
    lam = s.lambda_
    if lam < lam_low:
        regime, pi_aa = "full_disclosure", 1.0
        base = s.demand - s.tau - spread / prior_d
        slope_gap = s.alpha1_a - s.alpha1_n
        loss = base - s.p * (1.0 - s.p) * slope_gap * lam * s.demand / prior_d
    else:
        if lam < lam_high:
            regime = "partial_disclosure"
            scale = lam * s.demand * incident_d
        else:
            regime = "saturated_disclosure"
            scale = (s.demand - s.tau) * incident_d - spread
        # scale is 0 only where pi_aa cannot move the flows: at lambda_ = 0, or at
        # p = 1 with tau within ulps of its upper bound, where excess == scale gives 1.
        pi_aa = excess / (scale * s.p) if scale else 1.0
        loss = excess / incident_d
        if not -EPS <= pi_aa <= 1.0 + EPS:
            lam_low = _gap_lambda_low(s, lam_high)
            pi_aa = lam_low / min(lam, lam_high)
            loss = s.p * s.demand * lam_low
    return regime, pi_aa, loss, (pb, lam_low, lam_high)


def _gap_lambda_low(s: NetworkScenario, lam_high: float) -> float:
    """``lambda_low`` in the tau-gap form of :func:`lambda_thresholds`.

    ``excess`` cancels near ``tau_low``, and dividing it by a small ``p``
    magnifies its rounding error; this form cannot exceed ``lam_high``.  It
    serves only where the ``excess`` form fails a range check, so every
    other result keeps its bits.
    """
    gap = (1.0 - s.p) * (s.alpha1_n + s.alpha2) * (s.tau - tau_bounds(s)[0])
    return lam_high - gap / (s.p * s.demand * (s.alpha1_a + s.alpha2))


def optimal_design(s: NetworkScenario) -> DesignSolution:
    """Solve the planner's problem in closed form.

    The scenario is validated here, once. The returned solution carries the
    equilibrium induced by the optimal structure at the scenario's informed
    fraction; the closed-form loss is cross-checked against the spillover
    recomputed from those flows.
    """
    require_valid(s)
    word, pi_aa, outcome, loss, thresholds = _design(s, {})
    pi_star = InformationStructure(pi_aa, 1.0)
    return DesignSolution(Regime(word), pi_star, _outcome(outcome), loss, Thresholds(*thresholds))


def _design(s: NetworkScenario, solved: dict) -> tuple:
    """:func:`optimal_design` with the regime as its word, the optimum
    ``InformationStructure(pi_aa, 1.0)`` as its ``pi_aa`` and the outcome and thresholds
    as field tuples, the optimum solved through the memo ``solved`` (see ``_solved``).
    It does not validate ``s``: the caller has, as ``optimal_design`` and
    ``cli.run_sweep`` do."""
    regime, pi_aa, loss, thresholds = _closed_form(s)
    if not -EPS <= pi_aa <= 1.0 + EPS:
        raise ArithmeticError(f"derived signal probability outside [0, 1]: {pi_aa!r}")
    # InformationStructure's clamp of the EPS slack, min(max(pi_aa, 0.0), 1.0)
    if 0.0 > pi_aa:
        pi_aa = 0.0
    if 1.0 < pi_aa:
        pi_aa = 1.0

    outcome = _solved(solved, s, pi_aa)
    realized = _spillover(s, outcome[0], outcome[1], outcome[6][2])
    # The loss is exact at the optimal pi_aa and the spillover is realized at the
    # float pi_aa, so the check also allows what _PI_AA_ULPS ulps of pi_aa move it.
    gap, slack = abs(realized - loss), EPS * s.demand
    if gap > slack and gap > slack + _PI_AA_ULPS * _ulp_shift(s, pi_aa, realized):
        raise ArithmeticError(
            f"closed-form loss {loss!r} disagrees with realized spillover {realized!r}"
        )
    return regime, pi_aa, outcome, loss, thresholds


def _ulp_shift(s: NetworkScenario, pi_aa: float, realized: float) -> float:
    """The larger change of the spillover ``realized`` at ``(pi_aa, 1.0)`` when
    ``pi_aa`` moves one ulp either way within [0, 1], which is
    ``|d spillover / d pi_aa|·ulp(pi_aa)`` to first order."""
    shift = 0.0
    for neighbour in (math.nextafter(pi_aa, 0.0), math.nextafter(pi_aa, 1.0)):
        if neighbour != pi_aa:
            out = _solve(s, neighbour, 1.0)
            shift = max(shift, abs(_spillover(s, out[0], out[1], out[6][2]) - realized))
    return shift
