"""Acceptance battery.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with ``pytest -s`` or on failure).  The golden network used
throughout: route-1 slopes 3/1, route-2 slope 2, free-flow times 15/20,
demand 10, incident prior 0.3, threshold 2.5.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import Exact, exact_scenario, random_scenario, random_structure, spillover
from routegame import (
    GridSpec,
    InformationStructure,
    Regime,
    best_response_equilibrium,
    grid_search_design,
    lambda_thresholds,
    optimal_design,
    p_bar,
    posterior_beliefs,
    solve_equilibrium,
    validate_scenario,
    verify_wardrop,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_golden_thresholds(ex1):
    lam_low, lam_high = lambda_thresholds(ex1)
    ok = abs(lam_low - 0.133) <= 1e-3 and abs(lam_high - 0.25) <= 1e-3
    _report(1, "fraction thresholds", ok, f"lambda_low={lam_low:.6f}, lambda_high={lam_high:.6f}")


def test_criterion_2_prior_threshold(ex1):
    pb = p_bar(ex1)
    sol = optimal_design(ex1)
    ok = abs(pb - 1.0 / 6.0) <= 1e-9 and sol.regime is not Regime.NO_PERSUASION
    _report(2, "prior threshold", ok, f"p_bar={pb:.12f}, regime={sol.regime.value}")


def test_criterion_3_spillover_comparisons(ex1):
    optimal = optimal_design(replace(ex1, lambda_=0.6)).loss
    full_info_all = solve_equilibrium(
        replace(ex1, lambda_=1.0), InformationStructure.full_revelation()
    )
    complete = full_info_all.beliefs.pr_a * max(full_info_all.f2_given_a - ex1.tau, 0.0)
    none = solve_equilibrium(ex1, InformationStructure.no_information())
    no_info = max(none.f2_given_n - ex1.tau, 0.0)

    vs_complete = 1.0 - optimal / complete
    vs_none = 1.0 - optimal / no_info
    # The reduction against complete information matches the advertised 47%
    # within a percentage point.  Against no information the formulas yield
    # 0.5556 -> 0.4, a 28% reduction; the sometimes-quoted 18% figure does
    # not follow from the closed forms, so 28% is what this suite pins.
    ok = (
        abs(optimal - 0.4) <= 1e-9
        and abs(complete - 0.75) <= 1e-9
        and abs(no_info - 5.0 / 9.0) <= 1e-9
        and abs(vs_complete - 0.47) <= 0.01
        and abs(vs_none - 0.28) <= 0.01
    )
    _report(
        3,
        "spillover comparisons",
        ok,
        f"optimal=0.4 vs complete={complete:.4f} (-{vs_complete:.1%}) "
        f"vs none={no_info:.4f} (-{vs_none:.1%})",
    )


def _persuasion_battery(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_scenario(rng, persuasion=True) for _ in range(count)]


def test_golden_values_are_exact(ex1):
    # Criteria 1-3 in exact rationals, through the same code: any float would show.
    s = exact_scenario(ex1, p=Fraction(3, 10), lambda_=Fraction(1, 5), tau=Fraction(5, 2))
    full = exact_scenario(s, lambda_=1)
    got = (
        p_bar(s),
        *lambda_thresholds(s),
        optimal_design(exact_scenario(s, lambda_=Fraction(3, 5))).loss,
        spillover(full, solve_equilibrium(full, InformationStructure.full_revelation())),
        spillover(s, solve_equilibrium(s, InformationStructure.no_information())),
    )
    assert all(isinstance(v, Fraction) for v in got), got
    assert got == tuple(map(Fraction, ("1/6", "2/15", "1/4", "2/5", "3/4", "5/9")))


# Bound on |float - exact| of the loss and of f2_a, in units of 2**-52 times demand.
# Neither needs a condition number: the worst seen over seeds 1-3, 400 draws each,
# was 1.11 and 0.96 units. p_bar, lambda_low, pi_aa and f2_n cancel near tau_low and
# reach several units, so they are left to a bound that carries a condition number.
EXACT_UNITS = 2


def test_design_is_within_ulps_of_the_exact_reference(ex1):
    # The reference is the same code run on Exact inputs (conftest.py).
    worst = {"loss": 0, "f2_a": 0}
    for s in [ex1, *_persuasion_battery(1, 400)]:
        exact = exact_scenario(s)
        assert validate_scenario(exact).ok, s
        got, ref = optimal_design(s), optimal_design(exact)
        assert got.regime is ref.regime, s
        for name, value, reference in (
            ("loss", got.loss, ref.loss),
            ("f2_a", got.outcome.f2_given_a, ref.outcome.f2_given_a),
        ):
            assert type(reference) is Exact, (name, s)
            worst[name] = max(worst[name], abs(reference - value) / s.demand * 2**52)
    assert max(worst.values()) <= EXACT_UNITS, {k: float(v) for k, v in worst.items()}


def test_criterion_4_grid_search_never_beats_closed_form(ex1):
    spec = GridSpec(steps_pi=201, tol=1e-8)
    slack_unit = 2.0 / (spec.steps_pi - 1)
    worst = -np.inf
    for base in [ex1] + _persuasion_battery(seed=404, count=10):
        lam_low, lam_high = lambda_thresholds(base)
        for lam in (0.05, lam_low, 0.2, lam_high, 0.6, 1.0):
            s = replace(base, lambda_=float(lam))
            _, best_loss = grid_search_design(s, spec)
            closed = optimal_design(s).loss
            worst = max(worst, closed - best_loss - slack_unit * s.demand)
    _report(4, "brute-force optimality", worst <= 0.0, f"worst margin={worst:.3e}")


def test_criterion_5_dynamics_equivalence():
    rng = np.random.default_rng(505)
    spec = GridSpec(tol=1e-9)
    worst = 0.0
    for _ in range(100):
        s = random_scenario(rng)
        pi = random_structure(rng)
        out = solve_equilibrium(s, pi)
        f2n, f2a = best_response_equilibrium(s, pi, spec)
        worst = max(
            worst,
            abs(f2n - out.f2_given_n) / s.demand,
            abs(f2a - out.f2_given_a) / s.demand,
        )
        assert verify_wardrop(s, pi, (out.f2_given_n, out.f2_given_a)).ok
        assert verify_wardrop(s, pi, (f2n, f2a)).ok
    _report(5, "dynamics equivalence", worst <= 1e-6, f"worst flow gap={worst:.3e} demand units")


def test_criterion_6_regime_continuity(ex1):
    worst = 0.0
    for s in [ex1] + _persuasion_battery(seed=606, count=10):
        for boundary in lambda_thresholds(s):
            below = optimal_design(replace(s, lambda_=math.nextafter(boundary, 0.0)))
            at = optimal_design(replace(s, lambda_=boundary))
            worst = max(
                worst,
                abs(below.pi_star.pi_a_given_a - at.pi_star.pi_a_given_a),
                abs(below.loss - at.loss),
            )
    _report(6, "regime continuity", worst <= 1e-9, f"worst boundary gap={worst:.3e}")


def test_criterion_7_cost_shape_under_optimal_policy(ex1):
    lam_low, lam_high = lambda_thresholds(ex1)
    lams = np.linspace(0.0, 1.0, 201)
    solutions = [optimal_design(replace(ex1, lambda_=float(lam))) for lam in lams]
    avg = [sol.outcome.cost_avg for sol in solutions]
    tol = 1e-9 * ex1.b2

    ok = True
    detail = []
    for i in range(len(lams) - 1):
        a, b = lams[i], lams[i + 1]
        if b < lam_low:  # full-disclosure stretch: strictly decreasing
            if not avg[i + 1] < avg[i] - 1e-12:
                ok = False
                detail.append(f"not decreasing at {a:.3f}")
        elif a >= lam_low and b < lam_high:  # partial stretch: strictly increasing
            if not avg[i + 1] > avg[i] + 1e-12:
                ok = False
                detail.append(f"not increasing at {a:.3f}")
        elif a >= lam_high:  # saturated stretch: constant
            if abs(avg[i + 1] - avg[i]) > tol:
                ok = False
                detail.append(f"not constant at {a:.3f}")
    for lam, sol in zip(lams, solutions):
        c1, c2 = sol.outcome.cost_pop1, sol.outcome.cost_pop2
        if lam < lam_high:
            if c1 > c2 + tol:
                ok = False
                detail.append(f"informed dearer at {lam:.3f}")
        elif abs(c1 - c2) > tol:
            ok = False
            detail.append(f"populations differ at {lam:.3f}")
    _report(7, "population cost shape", ok, "; ".join(detail) or "201-point sweep clean")


def test_criterion_8_lemma_suite(ex1):
    rng = np.random.default_rng(808)
    worst_plausibility = 0.0
    for _ in range(1000):
        s = random_scenario(rng)
        b = posterior_beliefs(s, random_structure(rng))
        worst_plausibility = max(
            worst_plausibility, abs(b.beta_a_of_a * b.pr_a + b.beta_n_of_a * (1.0 - b.pr_a) - s.p)
        )
    plausible = worst_plausibility <= 1e-12

    informed_branch = True
    above_threshold = True
    for base in [ex1] + _persuasion_battery(seed=909, count=15):
        lam_low, lam_high = lambda_thresholds(base)
        for lam in np.linspace(0.0, 1.0, 9):
            s = replace(base, lambda_=float(lam))
            sol = optimal_design(s)
            if lam < lam_high and sol.outcome.g_value < lam - 1e-12:
                informed_branch = False
            if (
                sol.outcome.f2_given_n < s.tau - 1e-9
                or sol.outcome.f2_given_a < s.tau - 1e-9
            ):
                above_threshold = False
    ok = plausible and informed_branch and above_threshold
    _report(
        8,
        "lemma suite",
        ok,
        f"plausibility residual={worst_plausibility:.2e}, informed-branch={informed_branch}, "
        f"flows-above-threshold={above_threshold}",
    )


def test_criterion_9_structural_facts(ex1):
    lam_low, _ = lambda_thresholds(ex1)
    truthful = True
    incident_only = True
    probability_drops = True
    for base in [ex1] + _persuasion_battery(seed=910, count=10):
        b_low, _ = lambda_thresholds(base)
        for lam in np.linspace(0.0, 1.0, 21):
            sol = optimal_design(replace(base, lambda_=float(lam)))
            if sol.pi_star.pi_n_given_n != 1.0:
                truthful = False
            if lam >= b_low:
                out = sol.outcome
                if max(out.f2_given_n - base.tau, 0.0) > 1e-9:
                    incident_only = False
                if out.f2_given_a - base.tau <= 0.0:
                    incident_only = False
                prob = sol.pi_star.pi_a_given_a * base.p
                # the incident-signal probability strictly undercuts the prior
                # beyond the lower threshold; at the threshold itself the
                # structure is fully revealing and the probability equals p
                if lam > b_low + 1e-9:
                    if not prob < base.p:
                        probability_drops = False
                elif prob > base.p + 1e-12:
                    probability_drops = False
    ok = truthful and incident_only and probability_drops
    _report(
        9,
        "structural facts",
        ok,
        f"truthful-nominal={truthful}, incident-only-spillover={incident_only}, "
        f"spillover-probability<prior={probability_drops}",
    )


@pytest.fixture(scope="module", autouse=True)
def _banner():
    print("\nacceptance battery: golden two-route network plus seeded random scenarios")
    yield
