import math

import pytest

from conftest import golden_scenario
from routegame import (
    DomainError,
    InformationStructure,
    ScenarioParseError,
    format_scenario,
    parse_scenario,
    tau_bounds,
    validate_scenario,
)


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

    def test_named_structures(self):
        full = InformationStructure.full_revelation()
        assert (full.pi_a_given_a, full.pi_n_given_n) == (1.0, 1.0)
        none = InformationStructure.no_information()
        assert (none.pi_a_given_a, none.pi_n_given_n) == (0.0, 1.0)


class TestScenarioDocuments:
    def test_roundtrip(self, ex1):
        assert parse_scenario(format_scenario(ex1)) == ex1

    def test_comments_and_blanks_ignored(self):
        text = format_scenario(golden_scenario()) + "\n# trailing comment\n\n"
        assert parse_scenario(text) == golden_scenario()

    def test_unknown_key_rejected_with_line(self):
        text = format_scenario(golden_scenario()) + "gamma = 1.0\n"
        with pytest.raises(ScenarioParseError, match="unknown key 'gamma'"):
            parse_scenario(text)

    def test_duplicate_key_rejected(self):
        text = format_scenario(golden_scenario()) + "tau = 3.0\n"
        with pytest.raises(ScenarioParseError, match="duplicate key 'tau'"):
            parse_scenario(text)

    def test_missing_key_rejected(self):
        text = "\n".join(
            line for line in format_scenario(golden_scenario()).splitlines() if "tau" not in line
        )
        with pytest.raises(ScenarioParseError, match="missing keys: tau"):
            parse_scenario(text)

    def test_bad_number_rejected(self):
        text = format_scenario(golden_scenario()).replace("2.5", "two-ish")
        with pytest.raises(ScenarioParseError, match="invalid number"):
            parse_scenario(text)

    def test_bad_syntax_rejected(self):
        with pytest.raises(ScenarioParseError, match="expected 'key = value'"):
            parse_scenario("tau: 2.5")

    def test_values_survive_formatting(self, ex1):
        parsed = parse_scenario(format_scenario(golden_scenario(tau=1.0 / 3.0)))
        assert math.isclose(parsed.tau, 1.0 / 3.0, rel_tol=1e-11)
