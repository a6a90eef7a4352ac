import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario, random_structure
from routegame import (
    BeliefSystem,
    Branch,
    DomainError,
    GridSpec,
    InformationStructure,
    InvalidScenarioError,
    best_response_equilibrium,
    optimal_design,
    posterior_beliefs,
    solve_equilibrium,
    verify_wardrop,
)

FULL = InformationStructure.full_revelation()
UNINFORMATIVE = InformationStructure(0.5, 0.5)

# sha256 over the reprs of the solve_equilibrium and optimal_design records of
# test_records_are_bit_pinned's seeded battery, taken before the closed forms
# were rewritten as one straight-line solve.
PINNED_RECORDS_SHA256 = "1f3434b5e654e247936c536701e9df8d5d2d8e0c983165297122d38d73e4c84e"


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


class TestBeliefSystem:
    # the exact messages, one per condition in checking order
    @pytest.mark.parametrize(
        "args, message",
        [
            ((-0.1, 0.5, 0.5), "beta_a_of_a must lie in [0, 1], got -0.1"),
            ((1.1, 0.5, 0.5), "beta_a_of_a must lie in [0, 1], got 1.1"),
            ((math.nan, 0.5, 0.5), "beta_a_of_a must lie in [0, 1], got nan"),
            ((0.5, -0.1, 0.5), "beta_n_of_a must lie in [0, 1], got -0.1"),
            ((0.5, 1.1, 0.5), "beta_n_of_a must lie in [0, 1], got 1.1"),
            ((0.5, math.nan, 0.5), "beta_n_of_a must lie in [0, 1], got nan"),
            ((0.5, 0.5, -0.1), "pr_a must lie in [0, 1], got -0.1"),
            ((0.5, 0.5, 1.1), "pr_a must lie in [0, 1], got 1.1"),
            ((0.5, 0.5, math.nan), "pr_a must lie in [0, 1], got nan"),
            ((-0.1, 1.1, 0.5), "beta_a_of_a must lie in [0, 1], got -0.1"),
            (
                (0.2, 0.5, 0.3),
                "posterior ordering violated: beta_a_of_a=0.2 < beta_n_of_a=0.5",
            ),
        ],
    )
    def test_domain_error_text(self, args, message):
        with pytest.raises(DomainError) as info:
            BeliefSystem(*args)
        assert str(info.value) == message

    def test_bounds_admit_eps_slack(self):
        b = BeliefSystem(1.0 + 1e-10, -1e-10, 0.0)
        assert b.pr_n == 1.0
        BeliefSystem(0.5, 0.5 + 1e-10, 1.0)  # ordering tie within EPS


class TestPartitionValue:
    def test_uninformative_is_zero(self, ex1):
        assert solve_equilibrium(ex1, UNINFORMATIVE).g_value == pytest.approx(0.0, abs=1e-12)

    def test_full_revelation(self, ex1):
        # 25/30 - 25/50
        assert solve_equilibrium(ex1, FULL).g_value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_saturated_optimum_hits_upper_threshold(self, ex1):
        g = solve_equilibrium(ex1, InformationStructure(8.0 / 15.0, 1.0)).g_value
        assert g == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_random(self, ex1):
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert solve_equilibrium(ex1, random_structure(rng)).g_value >= -1e-12


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
            if solve_equilibrium(ex1, InformationStructure(mid, 1.0)).g_value < lam:
                lo = mid
            else:
                hi = mid
        pi = InformationStructure(0.5 * (lo + hi), 1.0)
        g = solve_equilibrium(ex1, pi).g_value
        assert g == pytest.approx(lam, abs=1e-9)

        b = posterior_beliefs(ex1, pi)
        spread = ex1.cost_spread
        a1a, a1n, a2 = ex1.alpha1_a, ex1.alpha1_n, ex1.alpha2
        d_a = a1a * b.beta_a_of_a + a1n * (1.0 - b.beta_a_of_a) + a2
        d_n = a1a * b.beta_n_of_a + a1n * (1.0 - b.beta_n_of_a) + a2
        d_prior = a1a * ex1.p + a1n * (1.0 - ex1.p) + a2
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
        g = solve_equilibrium(ex1, pi).g_value
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

    def test_records_are_bit_pinned(self):
        # every float expression of the closed forms keeps its operands,
        # order and association; every tenth draw at lambda_ 0 and at 1
        rng = np.random.default_rng(6)
        digest = hashlib.sha256()
        for i in range(2000):
            s = random_scenario(rng, persuasion=i % 2 == 1)
            if i % 10 in (3, 7):
                s = replace(s, lambda_=float(i % 10 == 7))
            pi = random_structure(rng)
            digest.update(repr(solve_equilibrium(s, pi).to_record()).encode())
            digest.update(repr(optimal_design(s).to_record()).encode())
        assert digest.hexdigest() == PINNED_RECORDS_SHA256

    def test_record_is_flat_and_complete(self, ex1):
        record = solve_equilibrium(ex1, FULL).to_record()
        assert set(record) == {
            "f2_n", "f2_a", "f1_n", "f1_a", "branch", "g_value", "pr_a",
            "beta_a_a", "beta_n_a", "cost_pop1", "cost_pop2", "cost_avg",
        }
        assert record["branch"] == "informed_switch_all"


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
            c1 = (s.alpha1_a * beta + s.alpha1_n * (1.0 - beta)) * (s.demand - f2) + s.b1
            c2 = s.alpha2 * f2 + s.b2
            assert c1 == pytest.approx(c2, abs=1e-9)


class TestVerifyWardrop:
    def test_solver_output_passes(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            s = random_scenario(rng)
            pi = random_structure(rng)
            out = solve_equilibrium(s, pi)
            report = verify_wardrop(s, pi, (out.f2_given_n, out.f2_given_a))
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
        assert not report.ok
        assert report.max_gap == math.inf
        assert report.violations == (
            "flows (f2_n=1.0, f2_a=5.0) admit no nonnegative decomposition at lambda_=0.1",
        )

    def test_invalid_scenario_refused(self, ex1):
        # an informed fraction above 1 is the scenario's fault, not the flows'
        s = replace(ex1, lambda_=1.5)
        with pytest.raises(InvalidScenarioError):
            verify_wardrop(s, FULL, (2.0, 4.0))

    @pytest.mark.parametrize(
        "flows, message",
        [
            ((-1.0, 2.0), r"^f2_n outside \[0, demand\]: -1\.0$"),
            ((math.nan, math.nan), r"^f2_n outside \[0, demand\]: nan$"),
            ((math.nan, 5.0), r"^f2_n outside \[0, demand\]: nan$"),
            ((5.0 / 3.0, math.nan), r"^f2_a outside \[0, demand\]: nan$"),
        ],
        ids=["negative", "nan-nan", "nan-f2_n", "nan-f2_a"],
    )
    def test_flow_outside_demand_rejected(self, ex1, flows, message):
        with pytest.raises(DomainError, match=message):
            verify_wardrop(ex1, FULL, flows)
