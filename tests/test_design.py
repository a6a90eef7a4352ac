from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario
from routegame import (
    InformationStructure,
    InvalidScenarioError,
    Regime,
    RegimeError,
    average_spillover,
    lambda_thresholds,
    optimal_design,
    p_bar,
    partition_value,
    solve_equilibrium,
    tau_bounds,
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
        from routegame import DomainError

        with pytest.raises(DomainError):
            p_bar(golden_scenario(tau=ex1.demand))


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
            assert partition_value(s, sol.pi_star) >= lam - 1e-9

    def test_spillover_probability_below_incident_prior(self, ex1):
        lam_low, _ = lambda_thresholds(ex1)
        for lam in np.linspace(lam_low + 0.01, 1.0, 9):
            sol = optimal_design(golden_scenario(lambda_=float(lam)))
            prob = sol.pi_star.pi_a_given_a * ex1.p
            assert 0.0 < prob < min(1.0, ex1.p)
