import math

import pytest

from conftest import DEMO_CONFIG, golden_scenario
from routegame import (
    EPS,
    DomainError,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    ScenarioParseError,
    optimal_design,
    parse_scenario,
    tau_bounds,
    validate_scenario,
)

GOLDEN_TEXT = DEMO_CONFIG.read_text()


class TestValidateScenario:
    def test_golden_scenario_is_clean(self, ex1):
        report = validate_scenario(ex1)
        assert report.ok
        assert report.violations == ()
        assert str(report) == "scenario valid"

    def test_free_flow_ordering(self):
        report = validate_scenario(golden_scenario(b1=25.0))
        assert any("b1 < b2 violated" in v for v in report.violations)

    def test_tau_below_range(self):
        report = validate_scenario(golden_scenario(tau=1.0))
        assert any("tau below admissible range" in v for v in report.violations)
        low, _ = tau_bounds(golden_scenario())
        assert low == pytest.approx(10.0 - 25.0 / 3.0)

    def test_tau_above_range(self):
        report = validate_scenario(golden_scenario(tau=6.0))
        assert any("tau above admissible range" in v for v in report.violations)

    def test_tau_bounds_are_admissible(self):
        low, high = tau_bounds(golden_scenario())
        assert validate_scenario(golden_scenario(tau=low)).ok
        assert validate_scenario(golden_scenario(tau=high)).ok

    def test_tau_lower_bound_has_no_slack(self):
        # below the lower bound the fraction thresholds invert, so even a
        # gap inside the flow tolerance is refused; the upper bound keeps it
        s = golden_scenario()
        low, high = tau_bounds(s)
        report = validate_scenario(golden_scenario(tau=low - 0.5 * EPS * s.demand))
        assert any("tau below admissible range" in v for v in report.violations)
        assert validate_scenario(golden_scenario(tau=low)).ok
        assert validate_scenario(golden_scenario(tau=high + 0.5 * EPS * s.demand)).ok

    @pytest.mark.parametrize(
        "override, fragment",
        [
            ({"alpha1_a": 1.5}, "alpha1_a > alpha2"),
            ({"alpha1_n": 2.5}, "alpha2 > alpha1_n"),
            ({"demand": 4.0}, "demand > (b2 - b1)/alpha1_n"),
            ({"p": 1.5}, "p must lie in [0, 1]"),
            ({"lambda_": -0.2}, "lambda_ must lie in [0, 1]"),
            ({"alpha2": -1.0}, "alpha2 must be positive"),
        ],
    )
    def test_single_violations_are_reported(self, override, fragment):
        report = validate_scenario(golden_scenario(**override))
        assert not report.ok
        assert any(fragment in v for v in report.violations)

    @pytest.mark.parametrize("name", ["alpha1_a", "demand"])
    def test_infinite_field_is_reported(self, name):
        # both validated before, and the design then failed its threshold
        # ordering check with lambda_low = nan
        report = validate_scenario(golden_scenario(**{name: math.inf}))
        assert f"{name} must be finite, got inf" in report.violations

    def test_nan_field_is_reported_as_not_finite(self):
        report = validate_scenario(golden_scenario(b2=math.nan))
        assert "b2 must be finite, got nan" in report.violations

    def test_tau_at_demand_refused_under_steep_incident_slope(self):
        # at alpha1_a / alpha2 = 1e10 the upper tau bound plus its slack
        # EPS * demand passes demand, where p_bar is singular
        s = NetworkScenario(
            alpha1_a=1e10, alpha1_n=0.5, alpha2=1.0, b1=1.0, b2=2.0,
            demand=100.0, p=0.5, lambda_=0.5, tau=100.0,
        )
        _, high = tau_bounds(s)
        assert s.tau <= high + EPS * s.demand
        report = validate_scenario(s)
        assert report.violations == (f"tau above admissible range: tau=100.0 > {high:.12g}",)
        with pytest.raises(InvalidScenarioError):
            optimal_design(s)

    def test_demand_violation_also_breaks_tau_position(self):
        # demand=4 shifts the admissible tau window; the demand message must
        # be present regardless of what happens to the tau check
        report = validate_scenario(golden_scenario(demand=4.0))
        assert any("demand" in v for v in report.violations)


class TestInformationStructure:
    def test_complements_are_derived(self):
        pi = InformationStructure(0.7, 0.9)
        assert pi.pi_n_given_a == pytest.approx(0.3)
        assert pi.pi_a_given_n == pytest.approx(0.1)

    def test_feasibility_boundary_allowed(self):
        pi = InformationStructure(0.25, 0.75)  # pi(n|n) == pi(n|a)
        assert pi.pi_n_given_n == pi.pi_n_given_a

    def test_infeasible_rejected(self):
        with pytest.raises(DomainError):
            InformationStructure(0.25, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            InformationStructure(1.25, 1.0)

    # the exact messages, one per condition in checking order
    @pytest.mark.parametrize(
        "args, message",
        [
            ((-0.1, 1.0), "pi_a_given_a must lie in [0, 1], got -0.1"),
            ((1.1, 1.0), "pi_a_given_a must lie in [0, 1], got 1.1"),
            ((math.nan, 1.0), "pi_a_given_a must lie in [0, 1], got nan"),
            ((1.0, -0.1), "pi_n_given_n must lie in [0, 1], got -0.1"),
            ((1.0, 1.1), "pi_n_given_n must lie in [0, 1], got 1.1"),
            ((1.0, math.nan), "pi_n_given_n must lie in [0, 1], got nan"),
            ((-0.1, 0.5), "pi_a_given_a must lie in [0, 1], got -0.1"),
            (
                (0.2, 0.5),
                "infeasible signal distribution: requires "
                "pi_n_given_n >= pi_n_given_a, got 0.5 < 0.8",
            ),
        ],
    )
    def test_domain_error_text(self, args, message):
        with pytest.raises(DomainError) as info:
            InformationStructure(*args)
        assert str(info.value) == message

    def test_named_structures(self):
        full = InformationStructure.full_revelation()
        assert (full.pi_a_given_a, full.pi_n_given_n) == (1.0, 1.0)
        none = InformationStructure.no_information()
        assert (none.pi_a_given_a, none.pi_n_given_n) == (0.0, 1.0)


class TestScenarioDocuments:
    def test_roundtrip(self, ex1):
        assert parse_scenario(GOLDEN_TEXT) == ex1

    def test_comments_and_blanks_ignored(self):
        text = GOLDEN_TEXT + "\n# trailing comment\n\n"
        assert parse_scenario(text) == golden_scenario()

    def test_unknown_key_rejected_with_line(self):
        text = GOLDEN_TEXT + "gamma = 1.0\n"
        with pytest.raises(ScenarioParseError, match="unknown key 'gamma'"):
            parse_scenario(text)

    def test_duplicate_key_rejected(self):
        text = GOLDEN_TEXT + "tau = 3.0\n"
        with pytest.raises(ScenarioParseError, match="duplicate key 'tau'"):
            parse_scenario(text)

    def test_missing_key_rejected(self):
        text = "\n".join(line for line in GOLDEN_TEXT.splitlines() if "tau" not in line)
        with pytest.raises(ScenarioParseError, match="missing keys: tau"):
            parse_scenario(text)

    def test_bad_number_rejected(self):
        text = GOLDEN_TEXT.replace("2.5", "two-ish")
        with pytest.raises(ScenarioParseError, match="invalid number"):
            parse_scenario(text)

    def test_bad_syntax_rejected(self):
        with pytest.raises(ScenarioParseError, match="expected 'key = value'"):
            parse_scenario("tau: 2.5")
