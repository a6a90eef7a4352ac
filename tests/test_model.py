import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import DEMO_CONFIG, Exact, exact_scenario, golden_scenario, random_scenario
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
from routegame import model
from routegame.model import SCENARIO_FIELDS

GOLDEN_TEXT = DEMO_CONFIG.read_text()

# Edge values for the fast path of validate_scenario and the field checks of
# InformationStructure, and the sha256 of what each edge case gave before any
# fast path existed: the report of every scenario case, and the stored pair
# or the error text of every structure case.
FIELD_EDGES = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.0)
PI_EDGES = (
    0.0, -0.0, 1.0, 5e-324, 0.3, 0.7, -EPS, 1.0 + EPS, -0.5 * EPS, 1.0 + 0.5 * EPS,
    math.nextafter(-EPS, -1.0), math.nextafter(1.0 + EPS, 2.0), math.nan, math.inf, -math.inf,
)
EDGE_REPORTS_DIGEST = "d8399e0a8fcbbde175ceaf7530668633d2b8c6bd9e27a2f140e514ef06a05996"
EDGE_STRUCTURES_DIGEST = "2ff8a98ae3fc64d1348053edd68aa13d62dea0631b0013230291a25afc2e6ac3"


def edge_scenario_cases():
    """Valid bases (the golden scenario, a steep incident slope, and random
    draws at demand x1 to x1e8), each as is, with one field at each of
    ``FIELD_EDGES``, with ``tau`` at, just outside and just inside its
    bounds and ``demand``, with ``demand`` at its bound ``(b2 - b1)/alpha1_n``,
    and with ``p`` and ``lambda_`` at and just outside ``[0, 1]``."""
    rng = np.random.default_rng(15)
    bases = [
        golden_scenario(),
        NetworkScenario(
            alpha1_a=1e10, alpha1_n=0.5, alpha2=1.0, b1=1.0, b2=2.0,
            demand=100.0, p=0.5, lambda_=0.5, tau=99.0,
        ),
    ]
    for k in (0, 2, 4, 8):
        s, scale = random_scenario(rng), 10.0**k
        bases.append(replace(
            s, b1=s.b1 * scale, b2=s.b2 * scale, demand=s.demand * scale, tau=s.tau * scale
        ))
    for s in bases:
        yield s
        for name in SCENARIO_FIELDS:
            for value in FIELD_EDGES:
                yield replace(s, **{name: value})
        low, high = tau_bounds(s)
        top = high + EPS * s.demand
        for tau in (low, math.nextafter(low, -math.inf), high, top,
                    math.nextafter(top, math.inf), s.demand, math.nextafter(s.demand, 0.0)):
            yield replace(s, tau=tau)
        bound = (s.b2 - s.b1) / s.alpha1_n
        yield replace(s, demand=bound)
        yield replace(s, demand=math.nextafter(bound, math.inf))
        for name in ("p", "lambda_"):
            for value in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), EPS, 1.0 - EPS):
                yield replace(s, **{name: value})


def edge_structure_cases():
    """Every pair of ``PI_EDGES``, and ``pi_n_given_n`` at and just below the
    feasibility bound ``1 - pi_a_given_a - EPS`` for each ``pi_a_given_a``."""
    for a in PI_EDGES:
        for n in PI_EDGES:
            yield a, n
        edge = 1.0 - a - EPS
        for n in (edge, math.nextafter(edge, -math.inf), 1.0 - a):
            yield a, n


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

    @pytest.mark.parametrize(
        "override", [{"tau": 1.0}, {"demand": 4.0}], ids=["tau-below", "demand-below"]
    )
    def test_exact_scenario_gets_the_float_violations(self, override):
        # a Fraction rejects the .12g format, so the bounds are printed as floats;
        # the texts differ only in the reprs of the scenario's own fields
        floats = golden_scenario(**override)
        exact = exact_scenario(floats)
        expected = []
        for text in validate_scenario(floats).violations:
            for name in SCENARIO_FIELDS:
                text = text.replace(
                    f"{name}={getattr(floats, name)!r}", f"{name}={getattr(exact, name)!r}"
                )
            expected.append(text)
        report = validate_scenario(exact)
        assert expected and "Exact(" in expected[0]
        assert list(report.violations) == expected
        with pytest.raises(InvalidScenarioError):
            optimal_design(exact)


GOLDEN_REPR = (
    "NetworkScenario(alpha1_a=3.0, alpha1_n=1.0, alpha2=2.0, b1=15.0, b2=20.0, "
    "demand=10.0, p=0.3, lambda_=0.2, tau=2.5)"
)


class TestNetworkScenarioRecord:
    """The frozen-dataclass contract that callers who vary a scenario rely on."""

    def test_dataclass_functions_work(self, ex1):
        assert tuple(f.name for f in dataclasses.fields(ex1)) == SCENARIO_FIELDS
        assert NetworkScenario.__match_args__ == SCENARIO_FIELDS
        assert dataclasses.asdict(ex1) == ex1.to_dict() == vars(ex1)
        assert list(ex1.to_dict()) == list(SCENARIO_FIELDS)
        moved = replace(ex1, tau=2.0)
        assert type(moved) is NetworkScenario
        assert moved.to_dict() == {**ex1.to_dict(), "tau": 2.0}

    @pytest.mark.parametrize("name", SCENARIO_FIELDS)
    def test_fields_are_frozen(self, ex1, name):
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(ex1, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ex1, name)
        assert repr(ex1) == GOLDEN_REPR

    def test_equal_fields_are_equal_and_hash_alike(self, ex1):
        twin = NetworkScenario(**ex1.to_dict())
        assert twin is not ex1
        assert twin == ex1 and hash(twin) == hash(ex1)
        assert hash(ex1) == hash(tuple(ex1.to_dict().values()))
        assert replace(ex1, p=0.4) != ex1
        assert ex1 != tuple(ex1.to_dict().values())

    def test_repr_is_unchanged(self, ex1):
        assert repr(ex1) == GOLDEN_REPR

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_to_dict_is_a_new_dict(self, ex1, exact):
        s = exact_scenario(ex1) if exact else ex1
        record, before = s.to_dict(), (hash(s), repr(s))
        assert record == dataclasses.asdict(s) and record is not s.to_dict()
        record["tau"], record["mu"] = 2.0, 1.0
        del record["p"]
        assert (hash(s), repr(s)) == before
        assert (s.tau, s.p) == (2.5, 0.3) and s.to_dict() == dataclasses.asdict(s)

    def test_positional_and_keyword_construction_agree(self, ex1):
        values = list(ex1.to_dict().values())
        assert NetworkScenario(*values) == ex1
        assert NetworkScenario(*values[:4], **dict(zip(SCENARIO_FIELDS[4:], values[4:]))) == ex1
        assert NetworkScenario(**dict(reversed(ex1.to_dict().items()))) == ex1

    def test_missing_argument_is_named(self, ex1):
        kwargs = ex1.to_dict()
        del kwargs["lambda_"]
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'lambda_'"):
            NetworkScenario(**kwargs)
        with pytest.raises(TypeError, match="'tau'"):
            NetworkScenario(*list(ex1.to_dict().values())[:-1])

    def test_unexpected_argument_is_named(self, ex1):
        with pytest.raises(TypeError, match="unexpected keyword argument 'mu'"):
            NetworkScenario(**ex1.to_dict(), mu=1.0)
        with pytest.raises(TypeError, match="takes 10 positional arguments but 11"):
            NetworkScenario(*ex1.to_dict().values(), 1.0)
        with pytest.raises(TypeError, match="multiple values for argument 'alpha1_a'"):
            NetworkScenario(3.0, **ex1.to_dict())

    def test_exact_fields_are_kept(self, ex1):
        exact = exact_scenario(ex1)
        for name in SCENARIO_FIELDS:
            value = getattr(exact, name)
            assert type(value) is Exact and value == getattr(ex1, name)
        assert exact == ex1 and hash(exact) == hash(ex1)
        assert type(replace(exact, tau=Exact(2)).tau) is Exact


class TestInformationStructure:
    def test_feasibility_boundary_allowed(self):
        pi = InformationStructure(0.25, 0.75)  # pi(n|n) == pi(n|a)
        assert pi.pi_n_given_n == 1.0 - pi.pi_a_given_a

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


def _sha256(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_validation_fast_path_agrees_with_field_checks():
    records, valid = [], 0
    for s in edge_scenario_cases():
        report = validate_scenario(s)
        assert report == model._field_report(s), s
        valid += report.ok
        records.append(repr(report.violations))
    assert 50 < valid < len(records) - 50
    assert _sha256(records) == EDGE_REPORTS_DIGEST


def test_structure_field_checks_are_pinned():
    records, stored = [], 0
    for a, n in edge_structure_cases():
        try:
            pi = InformationStructure(a, n)
        except DomainError as exc:
            records.append(f"DomainError: {exc}")
            continue
        # accepted values are stored clamped to [0, 1], sign of zero kept
        clamped = (min(max(a, 0.0), 1.0), min(max(n, 0.0), 1.0))
        assert repr((pi.pi_a_given_a, pi.pi_n_given_n)) == repr(clamped)
        stored += 1
        records.append(repr(clamped))
    assert 20 < stored < len(records) - 20
    assert _sha256(records) == EDGE_STRUCTURES_DIGEST


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
