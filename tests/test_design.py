from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario
from routegame import (
    EPS,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    Regime,
    RegimeError,
    average_spillover,
    lambda_thresholds,
    optimal_design,
    p_bar,
    solve_equilibrium,
    tau_bounds,
    validate_scenario,
)


class TestPBar:
    def test_golden_value(self, ex1):
        assert p_bar(ex1) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_threshold_solves_no_information_flow(self, ex1):
        # at p = p_bar the uninformed equilibrium flow equals the threshold
        s = golden_scenario(p=p_bar(ex1))
        out = solve_equilibrium(s, InformationStructure.no_information())
        assert out.f2_given_n == pytest.approx(s.tau, abs=1e-9)

    def test_tau_at_lower_bound_gives_zero(self, ex1):
        low, high = tau_bounds(ex1)
        assert p_bar(golden_scenario(tau=low)) == pytest.approx(0.0, abs=1e-12)
        assert p_bar(golden_scenario(tau=high)) == pytest.approx(1.0, abs=1e-12)

    def test_tau_at_demand_is_singular(self, ex1):
        with pytest.raises(InvalidScenarioError):
            p_bar(golden_scenario(tau=ex1.demand))

    @pytest.mark.parametrize("overrides", [{"alpha1_a": 1.0}, {"tau": 9.0}])
    def test_invalid_scenario_is_refused(self, overrides):
        # equal route-1 slopes make p_bar divide by zero; tau above its range puts it above 1
        with pytest.raises(InvalidScenarioError):
            p_bar(golden_scenario(**overrides))


class TestLambdaThresholds:
    def test_golden_values(self, ex1):
        lam_low, lam_high = lambda_thresholds(ex1)
        assert lam_low == pytest.approx(2.0 / 15.0, abs=1e-12)
        assert lam_high == pytest.approx(0.25, abs=1e-12)

    def test_undefined_below_p_bar(self):
        with pytest.raises(RegimeError):
            lambda_thresholds(golden_scenario(p=0.1))

    def test_thresholds_decrease_in_tau(self, ex1):
        lo1, hi1 = lambda_thresholds(golden_scenario(tau=2.0))
        lo2, hi2 = lambda_thresholds(golden_scenario(tau=3.0))
        assert lo2 < lo1
        assert hi2 < hi1

    def test_lower_threshold_vanishes_at_p_bar(self, ex1):
        s = golden_scenario(p=p_bar(ex1) + 1e-6)
        lam_low, _ = lambda_thresholds(s)
        assert 0.0 < lam_low < 1e-4

    def test_ordering_on_random_battery(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            s = random_scenario(rng, persuasion=True)
            lam_low, lam_high = lambda_thresholds(s)
            assert 0.0 < lam_low < lam_high < 1.0


# Valid scenarios with tau exactly tau_bounds(s)[0] and p = 1e-9: the
# thresholds coincide analytically, but the excess form of lambda_low
# divides a cancelled difference by p and overshoots lambda_high by ~1e-7;
# the design falls back to the tau-gap form.
THRESHOLD_ORDERING_DEFECTS = [
    NetworkScenario(
        alpha1_a=4.969780522671737, alpha1_n=1.9879122090686947, alpha2=2.4848902613358685,
        b1=5.0, b2=6.0, demand=1.0060806462559875, p=1e-09, lambda_=0.5,
        tau=0.223573476945775,
    ),
    NetworkScenario(
        alpha1_a=5.045442889369361, alpha1_n=1.2613607223423402, alpha2=2.5227214446846804,
        b1=5.0, b2=6.0, demand=1.5855892486377812, p=1e-09, lambda_=0.0,
        tau=0.26426487477296345,
    ),
]


@pytest.mark.parametrize("s", THRESHOLD_ORDERING_DEFECTS)
def test_thresholds_at_tau_low_with_tiny_prior(s):
    assert validate_scenario(s).ok
    assert s.tau == tau_bounds(s)[0]
    low, high = lambda_thresholds(s)
    assert low == pytest.approx(high, abs=1e-9)
    optimal_design(s)


# Valid scenarios with p_bar near 1e-8 and p above it by less than EPS: the
# absolute tie slack in the no-persuasion test classes them as ties (loss
# 0.0), although the realized spillover is large.
NO_PERSUASION_TIE_DEFECTS = [
    NetworkScenario(
        alpha1_a=275373112.2882087, alpha1_n=0.0008332658771197082, alpha2=781.2440207633616,
        b1=1.0, b2=54269.666301683785, demand=164198156.02204528, p=1.8537881634057073e-08,
        lambda_=0.7840421821532049, tau=1017677.765723953,
    ),
    NetworkScenario(
        alpha1_a=89159570043.95448, alpha1_n=305.0331887103623, alpha2=2133.01746772139,
        b1=1.0, b2=211889.22064620338, demand=44023074900.9682, p=1.796348508585977e-09,
        lambda_=0.06628524526413426, tau=7813315989.969435,
    ),
]


@pytest.mark.xfail(raises=ArithmeticError, strict=True, reason="absolute no-persuasion tie slack")
@pytest.mark.parametrize("s", NO_PERSUASION_TIE_DEFECTS)
def test_prior_just_above_tiny_p_bar_is_persuasion(s):
    assert validate_scenario(s).ok
    assert 0.0 < s.p - p_bar(s) <= EPS
    optimal_design(s)


# Valid saturated scenarios with alpha1_a / alpha2 near 1e8: pi_aa lies
# within 1e-8 of 1, so its rounding moves the route-1 slope under signal n
# enough that the realized spillover misses the closed-form loss by more
# than EPS * demand.
SATURATED_LOSS_DEFECTS = [
    NetworkScenario(
        alpha1_a=298741032.7213942, alpha1_n=0.0019382365748945687, alpha2=3.222566353315018,
        b1=1.0, b2=274776.41197824845, demand=623610523.6626489, p=0.3069000634334967,
        lambda_=0.9297251563147527, tau=135521055.76541263,
    ),
    NetworkScenario(
        alpha1_a=35286683681.657196, alpha1_n=7.534556256263611, alpha2=406.8519183646606,
        b1=1.0, b2=48009.24610360009, demand=4098311.0049651917, p=0.8806833342260154,
        lambda_=0.8268096790382283, tau=2123521.1434164224,
    ),
]


@pytest.mark.xfail(raises=ArithmeticError, strict=True, reason="closed-form loss self-check")
@pytest.mark.parametrize("s", SATURATED_LOSS_DEFECTS)
def test_saturated_design_with_pi_aa_near_one(s):
    assert validate_scenario(s).ok
    low, high = lambda_thresholds(s)
    assert s.lambda_ > high and 0.0 < 1.0 - low / high < 1e-8
    optimal_design(s)


def fuzz_scenarios(rng: np.random.Generator, span_exp: int, count: int):
    """Valid scenarios with ``b1 = 1`` and ``alpha2``, ``alpha1_a / alpha2 - 1``,
    ``alpha2 / alpha1_n - 1``, ``b2 - b1`` and the demand margin
    ``demand * alpha1_n / (b2 - b1) - 1`` log-uniform over ``[1, 10**span_exp]``;
    ``p`` is log-uniform over ``[1e-9, 1]`` and ``tau`` is ``tau_low``, a
    uniform interior point or ``tau_high`` with equal odds."""
    wide = 10.0 ** rng.uniform(0.0, span_exp, (5, count))
    priors = 10.0 ** rng.uniform(-9.0, 0.0, count)
    tau_ends = rng.integers(0, 3, count)
    tau_fracs = rng.uniform(0.0, 1.0, count)
    fractions = rng.uniform(0.0, 1.0, count)
    for i in range(count):
        a2, ratio_a, ratio_n, b_gap, margin = (float(w) for w in wide[:, i])
        a1n = a2 / (1.0 + ratio_n)
        b2 = 1.0 + b_gap
        demand = (b2 - 1.0) / a1n * (1.0 + margin)
        s = NetworkScenario(
            a2 * (1.0 + ratio_a), a1n, a2, 1.0, b2, demand,
            float(priors[i]), float(fractions[i]), 1.0,
        )
        low, high = tau_bounds(s)
        yield replace(s, tau=(low, low + float(tau_fracs[i]) * (high - low), high)[tau_ends[i]])


def test_fuzz_designs_pass_their_own_checks():
    # Only the pinned no-persuasion tie defect above may fail.
    rng = np.random.default_rng(101)
    failures = []
    for span_exp in (0, 3, 6, 8):
        for s in fuzz_scenarios(rng, span_exp, 2500):
            assert validate_scenario(s).ok, s
            try:
                optimal_design(s)
            except ArithmeticError as exc:
                tie = str(exc).startswith("closed-form loss") and s.p - p_bar(s) <= EPS
                if not tie:
                    failures.append(f"{s}: {exc}")
    assert not failures, "\n".join(failures)


class TestOptimalDesign:
    def test_full_disclosure_regime(self, ex1):
        sol = optimal_design(golden_scenario(lambda_=0.05))
        assert sol.regime is Regime.FULL_DISCLOSURE
        assert sol.pi_star.pi_a_given_a == 1.0
        assert sol.pi_star.pi_n_given_n == 1.0
        assert sol.loss == pytest.approx(179.0 / 360.0, abs=1e-12)

    def test_partial_disclosure_regime(self, ex1):
        sol = optimal_design(golden_scenario(lambda_=0.2))
        assert sol.regime is Regime.PARTIAL_DISCLOSURE
        assert sol.pi_star.pi_a_given_a == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sol.pi_star.pi_n_given_n == 1.0
        assert sol.outcome.f2_given_n == pytest.approx(2.5, abs=1e-9)
        assert sol.outcome.f2_given_a == pytest.approx(4.5, abs=1e-9)
        assert sol.loss == pytest.approx(0.4, abs=1e-12)

    def test_saturated_regime(self, ex1):
        sol = optimal_design(golden_scenario(lambda_=0.6))
        assert sol.regime is Regime.SATURATED_DISCLOSURE
        assert sol.pi_star.pi_a_given_a == pytest.approx(8.0 / 15.0, abs=1e-12)
        assert sol.outcome.f2_given_n == pytest.approx(2.5, abs=1e-9)
        assert sol.outcome.f2_given_a == pytest.approx(5.0, abs=1e-9)
        assert sol.loss == pytest.approx(0.4, abs=1e-12)

    def test_no_persuasion_regime(self):
        sol = optimal_design(golden_scenario(p=0.1))
        assert sol.regime is Regime.NO_PERSUASION
        assert sol.loss == 0.0
        assert sol.pi_star == InformationStructure.no_information()
        assert sol.thresholds.lambda_low is None
        assert sol.thresholds.lambda_high is None

    def test_p_bar_boundary_classifies_no_persuasion(self, ex1):
        sol = optimal_design(golden_scenario(p=p_bar(ex1)))
        assert sol.regime is Regime.NO_PERSUASION

    def test_lambda_boundaries_side_with_upper_regime(self, ex1):
        lam_low, lam_high = lambda_thresholds(ex1)
        assert optimal_design(golden_scenario(lambda_=lam_low)).regime is Regime.PARTIAL_DISCLOSURE
        assert (
            optimal_design(golden_scenario(lambda_=lam_high)).regime
            is Regime.SATURATED_DISCLOSURE
        )

    def test_invalid_scenario_refused(self):
        with pytest.raises(InvalidScenarioError):
            optimal_design(golden_scenario(tau=1.0))

    def test_loss_matches_realized_spillover(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            s = random_scenario(rng)
            sol = optimal_design(s)
            assert sol.loss == pytest.approx(average_spillover(s, sol.outcome), abs=1e-9)

    @pytest.mark.parametrize("k", [1e6, 3e6])
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.5])
    def test_large_demand_solves(self, k, lam):
        # Flows scaled by k, slopes by 1/k: costs, regime and pi_star are unchanged
        # and the loss scales by k, so rounding in it grows with demand.
        g = golden_scenario(lambda_=lam)
        s = replace(
            g, alpha1_a=g.alpha1_a / k, alpha1_n=g.alpha1_n / k, alpha2=g.alpha2 / k,
            demand=g.demand * k, tau=g.tau * k,
        )
        sol, base = optimal_design(s), optimal_design(g)
        assert sol.regime is base.regime
        assert sol.loss == pytest.approx(average_spillover(s, sol.outcome), rel=1e-12)
        assert sol.loss == pytest.approx(k * base.loss, rel=1e-9)

    def test_nominal_signal_truthful_in_persuasion_regimes(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            s = random_scenario(rng, persuasion=True)
            sol = optimal_design(s)
            assert sol.regime is not Regime.NO_PERSUASION
            assert sol.pi_star.pi_n_given_n == 1.0

    def test_nominal_flow_pinned_to_threshold_in_partial_regimes(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            s = random_scenario(rng, persuasion=True)
            sol = optimal_design(s)
            if sol.regime in (Regime.PARTIAL_DISCLOSURE, Regime.SATURATED_DISCLOSURE):
                assert sol.outcome.f2_given_n == pytest.approx(s.tau, abs=1e-8)
            assert sol.outcome.f2_given_n >= s.tau - 1e-8
            assert sol.outcome.f2_given_a >= s.tau - 1e-8

    def test_record_is_flat_and_complete(self, ex1):
        record = optimal_design(ex1).to_record()
        assert set(record) == {
            "regime", "pi_a_a", "pi_n_n", "f2_n", "f2_a", "loss", "p_bar",
            "lambda_low", "lambda_high", "pr_a", "cost_pop1", "cost_pop2", "cost_avg",
        }
        assert record["regime"] == "partial_disclosure"


class TestRegimeContinuity:
    def test_solution_continuity_across_boundaries(self, ex1):
        lam_low, lam_high = lambda_thresholds(ex1)
        for boundary in (lam_low, lam_high):
            below = optimal_design(golden_scenario(lambda_=boundary - 1e-9))
            at = optimal_design(golden_scenario(lambda_=boundary))
            assert below.pi_star.pi_a_given_a == pytest.approx(
                at.pi_star.pi_a_given_a, abs=1e-6
            )
            assert below.loss == pytest.approx(at.loss, abs=1e-6)


def _optimal_losses(s, lambdas):
    return [optimal_design(replace(s, lambda_=float(lam))).loss for lam in lambdas]


class TestLossCurve:
    def test_golden_anchor_points(self, ex1):
        lam_low, _ = lambda_thresholds(ex1)
        losses = _optimal_losses(ex1, [0.0, lam_low, 1.0])
        assert losses[0] == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert losses[1] == pytest.approx(0.4, abs=1e-12)
        assert losses[2] == pytest.approx(0.4, abs=1e-12)

    def test_monotone_then_flat(self, ex1):
        lam_low, _ = lambda_thresholds(ex1)
        lams = np.linspace(0.0, 1.0, 101)
        losses = _optimal_losses(ex1, lams)
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        flat = [loss for lam, loss in zip(lams, losses) if lam >= lam_low]
        assert max(flat) - min(flat) <= 1e-12

    def test_no_persuasion_curve_is_zero(self):
        losses = _optimal_losses(golden_scenario(p=0.05), np.linspace(0.0, 1.0, 11))
        assert all(loss == 0.0 for loss in losses)

    def test_saturated_solutions_identical(self, ex1):
        _, lam_high = lambda_thresholds(ex1)
        a = optimal_design(golden_scenario(lambda_=lam_high + 0.1))
        b = optimal_design(golden_scenario(lambda_=1.0))
        assert a.pi_star == b.pi_star
        assert a.outcome.f2_given_n == pytest.approx(b.outcome.f2_given_n, abs=1e-12)
        assert a.outcome.f2_given_a == pytest.approx(b.outcome.f2_given_a, abs=1e-12)
        assert a.loss == b.loss


class TestOptimalityAgainstDenseGrid:
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.6])
    def test_no_grid_point_beats_closed_form(self, lam):
        # exact-solver sweep over feasible structures: the closed form must
        # lower-bound every grid cell up to numerical slack
        s = golden_scenario(lambda_=lam)
        closed = optimal_design(s).loss
        best = float("inf")
        for pi_aa in np.linspace(0.0, 1.0, 101):
            for pi_nn in np.linspace(max(0.0, 1.0 - pi_aa), 1.0, 41):
                pi = InformationStructure(float(pi_aa), float(pi_nn))
                out = solve_equilibrium(s, pi)
                best = min(best, average_spillover(s, out))
        assert best >= closed - 1e-6


class TestStructuralFacts:
    def test_spillover_only_after_incident_signal(self, ex1):
        lam_low, _ = lambda_thresholds(ex1)
        for lam in np.linspace(lam_low, 1.0, 9):
            sol = optimal_design(golden_scenario(lambda_=float(lam)))
            out = sol.outcome
            assert max(out.f2_given_n - ex1.tau, 0.0) <= 1e-9
            assert out.f2_given_a - ex1.tau > 1e-6

    def test_informed_structure_keeps_partition_above_fraction(self):
        # whenever persuasion is active and the fraction is below the upper
        # threshold, the optimum stays in the informed-switch branch
        rng = np.random.default_rng(29)
        for _ in range(40):
            s = random_scenario(rng, persuasion=True)
            lam_low, lam_high = lambda_thresholds(s)
            lam = float(rng.uniform(0.0, lam_high * 0.999))
            s = replace(s, lambda_=lam)
            sol = optimal_design(s)
            assert sol.outcome.g_value >= lam - 1e-9

    def test_spillover_probability_below_incident_prior(self, ex1):
        lam_low, _ = lambda_thresholds(ex1)
        for lam in np.linspace(lam_low + 0.01, 1.0, 9):
            sol = optimal_design(golden_scenario(lambda_=float(lam)))
            prob = sol.pi_star.pi_a_given_a * ex1.p
            assert 0.0 < prob < min(1.0, ex1.p)
