from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario, random_structure
from routegame import (
    Branch,
    DomainError,
    GridSpec,
    InfeasibleStrategyError,
    InformationStructure,
    InvalidScenarioError,
    best_response_equilibrium,
    mean_slope,
    partition_value,
    posterior_beliefs,
    recover_strategies,
    solve_equilibrium,
    verify_wardrop,
)

FULL = InformationStructure.full_revelation()
UNINFORMATIVE = InformationStructure(0.5, 0.5)


class TestPosteriorBeliefs:
    def test_full_revelation(self, ex1):
        b = posterior_beliefs(ex1, FULL)
        assert b.beta_a_of_a == pytest.approx(1.0)
        assert b.beta_n_of_a == pytest.approx(0.0)
        assert b.pr_a == pytest.approx(0.3)

    def test_uninformative_preserves_prior(self, ex1):
        for pi_aa in (0.0, 0.25, 0.5, 1.0):
            pi = InformationStructure(pi_aa, 1.0 - pi_aa)
            b = posterior_beliefs(ex1, pi)
            assert b.beta_a_of_a == pytest.approx(0.3)
            assert b.beta_n_of_a == pytest.approx(0.3)

    def test_saturated_optimum_by_hand_bayes(self, ex1):
        # Pr(a) = 0.3*(8/15) = 0.16, beta_n(a) = 0.3*(7/15)/0.84 = 1/6
        b = posterior_beliefs(ex1, InformationStructure(8.0 / 15.0, 1.0))
        assert b.beta_a_of_a == pytest.approx(1.0, abs=1e-12)
        assert b.beta_n_of_a == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert b.pr_a == pytest.approx(0.16, abs=1e-12)

    def test_zero_probability_signal_takes_prior(self, ex1):
        all_n = InformationStructure.no_information()
        b = posterior_beliefs(ex1, all_n)
        assert b.pr_a == 0.0
        assert b.beta_a_of_a == ex1.p  # off-support posterior pinned to the prior
        all_a = InformationStructure(1.0, 0.0)
        b = posterior_beliefs(ex1, all_a)
        assert b.pr_n == 0.0
        assert b.beta_n_of_a == ex1.p

    def test_bayes_plausibility_random(self, ex1):
        rng = np.random.default_rng(11)
        for _ in range(300):
            pi = random_structure(rng)
            b = posterior_beliefs(ex1, pi)
            blended = b.beta_a_of_a * b.pr_a + b.beta_n_of_a * b.pr_n
            assert blended == pytest.approx(ex1.p, abs=1e-12)
            assert b.beta_a_of_a >= b.beta_n_of_a - 1e-12


class TestMeanSlope:
    def test_degenerate_belief(self, ex1):
        assert mean_slope(1.0, ex1) == pytest.approx(3.0)

    def test_prior_belief(self, ex1):
        assert mean_slope(0.3, ex1) == pytest.approx(1.6)

    def test_saturated_nominal_belief(self, ex1):
        assert mean_slope(1.0 / 6.0, ex1) == pytest.approx(4.0 / 3.0)

    def test_out_of_range_belief_rejected(self, ex1):
        with pytest.raises(DomainError):
            mean_slope(1.5, ex1)


class TestPartitionValue:
    def test_uninformative_is_zero(self, ex1):
        assert partition_value(ex1, UNINFORMATIVE) == pytest.approx(0.0, abs=1e-12)

    def test_full_revelation(self, ex1):
        # 25/30 - 25/50
        assert partition_value(ex1, FULL) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_saturated_optimum_hits_upper_threshold(self, ex1):
        g = partition_value(ex1, InformationStructure(8.0 / 15.0, 1.0))
        assert g == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_random(self, ex1):
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert partition_value(ex1, random_structure(rng)) >= -1e-12


class TestSolveEquilibrium:
    def test_uninformative_flows(self, ex1):
        out = solve_equilibrium(ex1, UNINFORMATIVE)
        assert out.f2_given_n == pytest.approx(55.0 / 18.0, abs=1e-12)
        assert out.f2_given_a == pytest.approx(55.0 / 18.0, abs=1e-12)
        assert out.branch is Branch.BOTH_SPLIT  # g = 0 < lambda

    def test_uninformative_at_lambda_zero_is_branch_tie(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=0.0), UNINFORMATIVE)
        assert out.branch is Branch.INFORMED_SWITCH_ALL  # tie g == lambda == 0
        assert out.f2_given_n == pytest.approx(55.0 / 18.0, abs=1e-12)

    def test_full_revelation_all_informed(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=1.0), FULL)
        assert out.branch is Branch.BOTH_SPLIT
        assert out.f2_given_n == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert out.f2_given_a == pytest.approx(5.0, abs=1e-12)

    def test_full_revelation_small_fraction(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=0.1), FULL)
        assert out.branch is Branch.INFORMED_SWITCH_ALL
        assert out.f2_given_n == pytest.approx(95.0 / 36.0, abs=1e-12)
        assert out.f2_given_a == pytest.approx(131.0 / 36.0, abs=1e-12)

    def test_invalid_scenario_refused(self, ex1):
        with pytest.raises(InvalidScenarioError):
            solve_equilibrium(golden_scenario(tau=1.0), FULL)

    def test_outcome_identities_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = random_scenario(rng)
            pi = random_structure(rng)
            out = solve_equilibrium(s, pi)
            assert out.f1_given_n == pytest.approx(s.demand - out.f2_given_n)
            assert out.f1_given_a == pytest.approx(s.demand - out.f2_given_a)
            assert out.cost_avg == pytest.approx(
                s.lambda_ * out.cost_pop1 + (1.0 - s.lambda_) * out.cost_pop2
            )
            if out.branch is Branch.INFORMED_SWITCH_ALL:
                assert out.f2_given_a - out.f2_given_n == pytest.approx(
                    s.lambda_ * s.demand, abs=1e-9 * s.demand
                )
            else:
                # split-branch signal gap equals the partition value times demand
                assert out.f2_given_a - out.f2_given_n == pytest.approx(
                    out.g_value * s.demand, abs=1e-9 * s.demand
                )

    def test_branch_formulas_agree_at_tie(self, ex1):
        # bisect pi(a|a) at pi(n|n)=1 until the partition value hits lambda,
        # then both branch expressions must produce the same flows
        lam = ex1.lambda_
        lo, hi = 1e-6, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if partition_value(ex1, InformationStructure(mid, 1.0)) < lam:
                lo = mid
            else:
                hi = mid
        pi = InformationStructure(0.5 * (lo + hi), 1.0)
        g = partition_value(ex1, pi)
        assert g == pytest.approx(lam, abs=1e-9)

        b = posterior_beliefs(ex1, pi)
        spread = ex1.cost_spread
        d_a = mean_slope(b.beta_a_of_a, ex1) + ex1.alpha2
        d_n = mean_slope(b.beta_n_of_a, ex1) + ex1.alpha2
        d_prior = mean_slope(ex1.p, ex1) + ex1.alpha2
        branch1_n = ex1.demand - (spread + lam * ex1.demand * b.pr_a * d_a) / d_prior
        branch2_n = ex1.demand - spread / d_n
        branch2_a = ex1.demand - spread / d_a
        assert branch1_n == pytest.approx(branch2_n, abs=1e-8)
        assert branch1_n + lam * ex1.demand == pytest.approx(branch2_a, abs=1e-8)

        out = solve_equilibrium(ex1, pi)
        assert out.f2_given_n == pytest.approx(branch2_n, abs=1e-8)

    def test_informed_flows_monotone_in_fraction(self, ex1):
        # below the branch threshold, more informed travelers push the
        # nominal-signal flow down and the incident-signal flow up
        lams = np.linspace(0.0, 1.0 / 3.0, 12)
        outs = [solve_equilibrium(replace(ex1, lambda_=float(l)), FULL) for l in lams]
        f2n = [o.f2_given_n for o in outs]
        f2a = [o.f2_given_a for o in outs]
        assert all(x >= y - 1e-12 for x, y in zip(f2n, f2n[1:]))
        assert all(x <= y + 1e-12 for x, y in zip(f2a, f2a[1:]))

    def test_split_branch_ignores_fraction(self, ex1):
        pi = InformationStructure(0.6, 0.9)
        g = partition_value(ex1, pi)
        flows = None
        for lam in np.linspace(g + 0.05, 1.0, 7):
            out = solve_equilibrium(replace(ex1, lambda_=float(lam)), pi)
            assert out.branch is Branch.BOTH_SPLIT
            if flows is None:
                flows = (out.f2_given_n, out.f2_given_a)
            else:
                assert out.f2_given_n == pytest.approx(flows[0], abs=1e-12)
                assert out.f2_given_a == pytest.approx(flows[1], abs=1e-12)

    def test_matches_dynamics_oracle(self):
        rng = np.random.default_rng(5)
        spec = GridSpec(tol=1e-9)
        for _ in range(5):
            s = random_scenario(rng)
            pi = random_structure(rng)
            out = solve_equilibrium(s, pi)
            f2n, f2a = best_response_equilibrium(s, pi, spec)
            assert f2n == pytest.approx(out.f2_given_n, abs=1e-6 * s.demand)
            assert f2a == pytest.approx(out.f2_given_a, abs=1e-6 * s.demand)

    def test_record_is_flat_and_complete(self, ex1):
        record = solve_equilibrium(ex1, FULL).to_record()
        assert set(record) == {
            "f2_n", "f2_a", "f1_n", "f1_a", "branch", "g_value", "pr_a",
            "beta_a_a", "beta_n_a", "cost_pop1", "cost_pop2", "cost_avg",
        }
        assert record["branch"] == "informed_switch_all"


class TestRecoverStrategies:
    def test_informed_switch_all_decomposition(self, ex1):
        s = replace(ex1, lambda_=0.1)
        out = solve_equilibrium(s, FULL)
        prof = recover_strategies(s, out)
        assert prof.q1_route2_n == pytest.approx(0.0, abs=1e-12)
        assert prof.q1_route2_a == pytest.approx(0.1 * s.demand, abs=1e-12)
        assert prof.q2_route2 == pytest.approx(out.f2_given_n, abs=1e-12)

    def test_no_informed_population(self, ex1):
        s = replace(ex1, lambda_=0.0)
        out = solve_equilibrium(s, UNINFORMATIVE)
        prof = recover_strategies(s, out)
        assert prof.pop1_mass == 0.0
        assert prof.q1_route2_n == 0.0 and prof.q1_route2_a == 0.0
        assert prof.q2_route2 == pytest.approx(out.f2_given_n)

    def test_everyone_informed(self, ex1):
        s = replace(ex1, lambda_=1.0)
        out = solve_equilibrium(s, FULL)
        prof = recover_strategies(s, out)
        assert prof.pop2_mass == 0.0
        assert prof.q2_route2 == 0.0
        assert prof.q1_route2_n == pytest.approx(out.f2_given_n)
        assert prof.q1_route2_a == pytest.approx(out.f2_given_a)

    def test_composition_constraints_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_scenario(rng)
            out = solve_equilibrium(s, random_structure(rng))
            prof = recover_strategies(s, out)
            for q in (
                prof.q1_route2_n, prof.q1_route2_a, prof.q2_route2,
                prof.q1_route1_n, prof.q1_route1_a, prof.q2_route1,
            ):
                assert q >= -1e-9 * s.demand
            assert prof.q1_route2_n + prof.q2_route2 == pytest.approx(out.f2_given_n)
            assert prof.q1_route2_a + prof.q2_route2 == pytest.approx(out.f2_given_a)

    def test_unrepresentable_flows_rejected(self, ex1):
        # the signal gap exceeds the informed mass, so no decomposition exists
        s = replace(ex1, lambda_=0.1)
        with pytest.raises(InfeasibleStrategyError):
            recover_strategies(s, (1.0, 5.0))

    def test_flow_outside_demand_rejected(self, ex1):
        with pytest.raises(DomainError):
            recover_strategies(ex1, (-1.0, 2.0))


class TestPopulationCosts:
    def test_uninformative_costs_equalize(self, ex1):
        out = solve_equilibrium(ex1, UNINFORMATIVE)
        expected = 235.0 / 9.0
        assert out.cost_pop1 == pytest.approx(expected, abs=1e-9)
        assert out.cost_pop2 == pytest.approx(expected, abs=1e-9)
        assert out.cost_avg == pytest.approx(expected, abs=1e-9)

    def test_full_revelation_all_informed(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=1.0), FULL)
        assert out.cost_avg == pytest.approx(76.0 / 3.0, abs=1e-9)

    def test_informed_never_worse_under_full_disclosure(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=0.1), FULL)
        assert out.cost_pop1 <= out.cost_pop2 + 1e-12

    def test_empty_population_inherits_cost(self, ex1):
        out = solve_equilibrium(replace(ex1, lambda_=0.0), FULL)
        assert out.cost_pop1 == out.cost_pop2

    def test_split_branch_routes_cost_the_same(self, ex1):
        # decomposition invariance: with both populations split, each
        # signal's two routes carry identical expected cost
        s = replace(ex1, lambda_=1.0)
        out = solve_equilibrium(s, FULL)
        b = out.beliefs
        for f2, beta in ((out.f2_given_n, b.beta_n_of_a), (out.f2_given_a, b.beta_a_of_a)):
            c1 = mean_slope(beta, s) * (s.demand - f2) + s.b1
            c2 = s.alpha2 * f2 + s.b2
            assert c1 == pytest.approx(c2, abs=1e-9)


class TestVerifyWardrop:
    def test_solver_output_passes(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            s = random_scenario(rng)
            pi = random_structure(rng)
            out = solve_equilibrium(s, pi)
            report = verify_wardrop(s, pi, out)
            assert report.ok, report.violations

    def test_complete_information_cost_equalization(self, ex1):
        s = replace(ex1, lambda_=1.0)
        report = verify_wardrop(s, FULL, (5.0 / 3.0, 5.0))
        assert report.ok
        # per-state costs equalize: nominal 70/3 on both routes, incident 30
        assert s.alpha1_n * (s.demand - 5.0 / 3.0) + s.b1 == pytest.approx(70.0 / 3.0)
        assert s.alpha2 * (5.0 / 3.0) + s.b2 == pytest.approx(70.0 / 3.0)
        assert s.alpha1_a * (s.demand - 5.0) + s.b1 == pytest.approx(30.0)
        assert s.alpha2 * 5.0 + s.b2 == pytest.approx(30.0)

    def test_perturbed_flows_flag_violations(self, ex1):
        out = solve_equilibrium(ex1, FULL)
        report = verify_wardrop(ex1, FULL, (out.f2_given_n, out.f2_given_a + 0.5))
        assert not report.ok
        assert report.max_gap > 0.0

    def test_unrepresentable_flows_reported_infeasible(self, ex1):
        s = replace(ex1, lambda_=0.1)
        report = verify_wardrop(s, FULL, (1.0, 5.0))
        assert not report.feasible
        assert not report.ok

    def test_invalid_scenario_refused(self, ex1):
        # an informed fraction above 1 is the scenario's fault, not the flows'
        s = replace(ex1, lambda_=1.5)
        with pytest.raises(InvalidScenarioError):
            verify_wardrop(s, FULL, (2.0, 4.0))
        with pytest.raises(InvalidScenarioError):
            recover_strategies(s, (2.0, 4.0))
