import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario, random_structure
from routegame import (
    BeliefSystem,
    EPS,
    Branch,
    DomainError,
    GridSpec,
    InformationStructure,
    InvalidScenarioError,
    best_response_equilibrium,
    optimal_design,
    posterior_beliefs,
    solve_equilibrium,
    tau_bounds,
    verify_wardrop,
)
from routegame import equilibrium

FULL = InformationStructure.full_revelation()
UNINFORMATIVE = InformationStructure(0.5, 0.5)

# sha256 over the reprs of the solve_equilibrium and optimal_design records of
# test_records_are_bit_pinned's seeded battery, taken before the closed forms
# were rewritten as one straight-line solve.
PINNED_RECORDS_SHA256 = "1f3434b5e654e247936c536701e9df8d5d2d8e0c983165297122d38d73e4c84e"

# Edge values for BeliefSystem's field checks, and the sha256 of the stored
# triple or the error text of every edge triple, taken before BeliefSystem
# had an accept fast path (since removed); the field checks still give them.
BELIEF_EDGES = (
    0.0, -0.0, 1.0, 5e-324, 0.3, EPS, 1.0 - EPS, -EPS, 1.0 + EPS,
    math.nextafter(-EPS, -1.0), math.nextafter(1.0 + EPS, 2.0), math.nan, math.inf, -math.inf,
)
BELIEF_RECORDS_DIGEST = "d01615f2ba0cda1d19b8db1731c8311a72e2ae1bec7e2c417b8504748f61170b"

# sha256 of what _checked_flow, _decompose and _spillover gave on
# clip_edge_cases before their builtin min() and max() calls were replaced
# by comparisons (the spillover was then called through an outcome record).
CLIP_RECORDS_DIGEST = "cc9d71f6d7186e5c8b7b99565a08bc879eddfc5338ed6c1edf17fc0e838e960f"


def _sha256(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


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
        assert 1.0 - b.pr_a == 0.0
        assert b.beta_n_of_a == ex1.p

    def test_bayes_plausibility_random(self, ex1):
        rng = np.random.default_rng(11)
        for _ in range(300):
            pi = random_structure(rng)
            b = posterior_beliefs(ex1, pi)
            blended = b.beta_a_of_a * b.pr_a + b.beta_n_of_a * (1.0 - b.pr_a)
            assert blended == pytest.approx(ex1.p, abs=1e-12)
            assert b.beta_a_of_a >= b.beta_n_of_a - 1e-12

    @pytest.mark.parametrize("p, message", [
        (1.5, "beta_a_of_a must lie in [0, 1], got 1.0588235294117647"),
        (-0.5, "beta_a_of_a must lie in [0, 1], got -0.5"),
    ])
    def test_out_of_range_posteriors_raise(self, ex1, p, message):
        # p is out of range on an unvalidated scenario; the Bayes update's
        # result check still names the violation, also on the solve path,
        # which builds no BeliefSystem for beliefs in range.
        s, pi = replace(ex1, p=p), InformationStructure(0.6, 0.9)

        def solve_path(s, pi):
            return equilibrium._solve(s, pi.pi_a_given_a, pi.pi_n_given_n)

        for update in (posterior_beliefs, solve_path):
            with pytest.raises(DomainError) as info:
                update(s, pi)
            assert str(info.value) == message

    def test_posteriors_within_slack_are_accepted_as_computed(self, ex1):
        # Both posteriors exceed 1 and beta_n_of_a > beta_a_of_a, all within EPS.
        s = replace(ex1, p=1.0 + 1e-12)
        expected = (1.0000000000001668, 1.0000000000022502, 0.6000000000005)
        assert posterior_beliefs(s, InformationStructure(0.6, 0.9)) == BeliefSystem(*expected)
        assert equilibrium._posteriors(s, 0.6, 0.9) == expected


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
        assert 1.0 - b.pr_a == 1.0
        BeliefSystem(0.5, 0.5 + 1e-10, 1.0)  # ordering tie within EPS

    def test_field_checks_are_pinned(self):
        # what the field checks store or raise on every triple of BELIEF_EDGES,
        # and on beta_a_of_a at and one ulp either side of the ordering bound
        # beta_n_of_a - EPS
        triples = [(a, n, pr) for a in BELIEF_EDGES for n in BELIEF_EDGES for pr in BELIEF_EDGES]
        for n in (0.0, EPS, 0.3, 1.0, 1.0 + EPS):
            bound = n - EPS
            for a in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)):
                triples += [(a, n, 0.5), (a, n, 1.0)]
        records, stored = [], 0
        for args in triples:
            try:
                b = BeliefSystem(*args)
            except DomainError as exc:
                records.append(f"DomainError: {exc}")
                continue
            stored += 1
            records.append(repr((b.beta_a_of_a, b.beta_n_of_a, b.pr_a)))
        assert 200 < stored < len(records) - 200
        assert _sha256(records) == BELIEF_RECORDS_DIGEST


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

    # Structures within EPS outside [0, 1] are stored clamped, so Bayes never
    # sees a probability outside [0, 1].
    @pytest.mark.parametrize(
        "raw, clamped",
        [
            ((1.5e-9, 1.0 + 1e-9), (1.5e-9, 1.0)),
            ((-1e-9, 1.0 + 1e-9), (0.0, 1.0)),
            ((1.0 + 1e-9, -1e-9), (1.0, 0.0)),
        ],
    )
    def test_eps_slack_solves_as_clamped_structure(self, raw, clamped):
        s = golden_scenario(p=0.5)
        pi = InformationStructure(*raw)
        assert (pi.pi_a_given_a, pi.pi_n_given_n) == clamped
        out = solve_equilibrium(s, pi)
        assert out == solve_equilibrium(s, InformationStructure(*clamped))
        assert 0.0 <= out.beliefs.pr_a <= 1.0

    # An uninformative structure pi(n|n) = 1 - pi(a|a) near pi(n|n) = 1: the
    # rounded pi_n_given_n leaves pi(a|n) above pi(a|a) by about 5e-17, inside
    # the EPS feasibility slack, and Bayes would divide that excess by the
    # small pr_a and put beta_a_of_a below beta_n_of_a by more than EPS.  Such
    # a pair solves as the uninformative structure it rounds to.
    @pytest.mark.parametrize("pa", [1e-8, 5e-10])
    def test_uninformative_structure_near_pi_nn_one_solves(self, pa):
        out = solve_equilibrium(golden_scenario(p=0.5), InformationStructure(pa, 1.0 - pa))
        assert out.beliefs.beta_a_of_a == pytest.approx(out.beliefs.beta_n_of_a)

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


def clip_edge_values(s) -> list[float]:
    """Signed zeros, the smallest subnormal, NaN and the infinities, and one
    ulp either side of 0, both population masses, ``demand`` and the flow
    slack bounds ``-EPS*demand``, ``EPS*demand`` and ``demand*(1 + EPS)``."""
    demand, lam = s.demand, s.lambda_
    values = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]
    for x in (0.0, lam * demand, (1.0 - lam) * demand, demand, -EPS * demand,
              EPS * demand, demand * (1.0 + EPS)):
        values += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return values


def _call(f, *args) -> str:
    try:
        return repr(f(*args))
    except ArithmeticError as exc:
        return f"ArithmeticError: {exc}"

def clip_edge_cases():
    """Scenarios at informed fractions 0, -0.0, 0.2, 0.5 and 1, and at demand
    1e8, each with its :func:`clip_edge_values`."""
    for s in (
        *(golden_scenario(lambda_=lam) for lam in (0.0, -0.0, 0.2, 0.5, 1.0)),
        golden_scenario(demand=1e8, tau=4e7),
    ):
        yield s, clip_edge_values(s)


def test_clips_keep_builtin_min_max_results():
    # NaN, signed zeros and ties come out as builtin min() and max() gave them
    records = []
    for s, values in clip_edge_cases():
        spill_values = values + [math.nextafter(s.tau, -math.inf), s.tau,
                                 math.nextafter(s.tau, math.inf)]
        for f in values:
            records.append(_call(equilibrium._checked_flow, f, s.demand))
            for f2_a in values:
                records.append(_call(equilibrium._decompose, s, f, f2_a))
        for pr_a in (0.0, 0.3, 1.0):
            for f2_n in spill_values:
                for f2_a in spill_values:
                    records.append(_call(equilibrium._spillover, s, f2_n, f2_a, pr_a))
    assert _sha256(records) == CLIP_RECORDS_DIGEST


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

    def test_optima_pass_at_large_demand(self):
        # at demand 1e11 the route costs reach alpha1_a * D = 3e11, whose
        # rounding alone exceeded the old absolute tolerance 1e-7 * b2
        rng = np.random.default_rng(16)
        base = golden_scenario(demand=1e11)
        for _ in range(500):
            s = replace(base, p=float(rng.uniform()), lambda_=float(rng.uniform()))
            low, high = tau_bounds(s)
            s = replace(s, tau=low + float(rng.uniform(0.05, 0.95)) * (high - low))
            sol = optimal_design(s)
            report = verify_wardrop(s, sol.pi_star, (sol.outcome.f2_given_n, sol.outcome.f2_given_a))
            assert report.ok, (s, report.violations)

    def test_perturbed_flows_flag_violations_at_large_demand(self):
        s = golden_scenario(demand=1e11)
        s = replace(s, tau=sum(tau_bounds(s)) / 2)
        out = solve_equilibrium(s, FULL)
        # uninformed travelers shift 1e-6 * D to route 2 under both signals,
        # a cost gap of 3.6e5 against the tolerance 1e-7 * alpha1_a * D = 3e4
        shift = 1e-6 * s.demand
        flows = (out.f2_given_n + shift, out.f2_given_a + shift)
        report = verify_wardrop(s, FULL, flows)
        assert not report.ok
        assert 0.0 < report.max_gap < math.inf

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
