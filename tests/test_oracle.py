import ast
import csv
import hashlib
import sys
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario, random_structure, spillover
from routegame import (
    EPS,
    ConvergenceError,
    DomainError,
    GridSpec,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    best_response_equilibrium,
    grid_search_design,
    optimal_design,
    solve_equilibrium,
    verify_wardrop,
)
import routegame.oracle as oracle_mod

FULL = InformationStructure.full_revelation()
SPEC = GridSpec(tol=1e-9)

# Exact reprs of best_response_equilibrium on 20 draws from default_rng(2026).
# Any change to the iterates shows here, not only one beyond tolerance, so
# acceptance criterion 5 keeps speaking about the same dynamics.
PINNED_FLOWS = [
    "(8.579532202737383, 15.32308337455439)",
    "(6.25142039598284, 7.97806774437206)",
    "(2.4066541922003504, 3.623459209264604)",
    "(10.929479052415047, 11.99600118036618)",
    "(14.997515809955363, 18.439873012640476)",
    "(8.7129342042154, 10.806486602432539)",
    "(22.977493572223757, 23.136707836666805)",
    "(4.238203624740771, 4.4152103551330875)",
    "(17.109626776552865, 22.06859085142748)",
    "(6.606506203189721, 7.44194249647866)",
    "(1.9785685646551525, 2.607159132968846)",
    "(1.2836763396951096, 2.2765102635926495)",
    "(11.712111784309112, 11.94770413960759)",
    "(4.977060082972084, 5.096217973781469)",
    "(3.4252247499297632, 4.236925522870955)",
    "(8.190149260634538, 9.835521586824557)",
    "(12.59029792497676, 12.804845967835504)",
    "(14.47126864273592, 17.747183885956836)",
    "(8.033213699162403, 8.778100687956387)",
    "(1.567879014606399, 1.7794916811221526)",
]

# sha256 over the best_response_equilibrium reprs and ConvergenceError texts
# of _battery_records, taken from the vectorised dynamics this engine
# replaced.  It covers three tolerances, six iteration caps and one draw
# whose restarts disagree at tol and agree once resumed (RESUMED_FLOWS), so
# a change to any iterate or error text shows.
BATTERY_DIGEST = "1fe99c23495866bf039b1fa7a8e960b05ff9151bdf46cb85eb1657993476878f"
RESUMED_FLOWS = "(3.511616765530357, 6.618149090020008)"

# The two dynamics-workload specs (bench seeds 41 and 3106, ops 903 and 1881)
# whose restarts disagree at tol = 1e-9, by 1.306e-08 and 1.548e-08 demand
# units, until they resume.
RESUMED_SPECS = [
    (
        NetworkScenario(
            3.116394929286592, 1.7644875157442914, 2.5009016047976376, 7.36692308029574,
            8.515836029874757, 1.678396015975139, 0.032053717625428885, 0.07780822024833967,
            0.5817458763502199,
        ),
        InformationStructure(0.06494109747083598, 0.9845315330184006),
    ),
    (
        NetworkScenario(
            3.1642870525630786, 0.9104080818637553, 1.3200049484504979, 10.704324454777302,
            12.435124040318579, 2.9184865642622952, 0.9830135645363, 0.7631379327658566,
            0.6111069579210631,
        ),
        InformationStructure(0.9997325521304447, 0.9426566337380808),
    ),
]


def _battery_records(monkeypatch) -> list[str]:
    def outcome(s, pi, spec):
        try:
            return repr(best_response_equilibrium(s, pi, spec))
        except ConvergenceError as exc:
            return f"ConvergenceError: {exc}"

    def draw(rng):
        return random_scenario(rng), random_structure(rng)

    rng = np.random.default_rng(5)
    records = []
    for tol, n in ((1e-9, 100), (1e-6, 25), (1e-11, 25)):
        records += [outcome(*draw(rng), GridSpec(tol=tol)) for _ in range(n)]
    for cap in (2, 5, 18, 19, 20, 50):
        monkeypatch.setattr(oracle_mod, "ITERATION_CAP", cap)
        records.append(outcome(golden_scenario(), FULL, SPEC))
        records += [outcome(*draw(rng), SPEC) for _ in range(3)]
    monkeypatch.undo()
    rng = np.random.default_rng(1)
    for _ in range(1360):
        draw(rng)
    records.append(outcome(*draw(rng), SPEC))  # restarts disagree at tol by 1.452e-08
    return records


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.steps_pi == 201 and spec.tol > 0
        assert [f.name for f in fields(GridSpec)] == ["steps_pi", "tol"]

    # a float steps_pi used to pass here and fail in the grid search with TypeError
    @pytest.mark.parametrize("kwargs", [
        {"steps_pi": 1}, {"tol": float("nan")}, {"tol": 0.0}, {"tol": float("inf")},
        {"steps_pi": 11.0}, {"steps_pi": "11"}, {"steps_pi": np.float64(11)},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    def test_numpy_integer_steps_accepted(self):
        s = golden_scenario()
        spec = GridSpec(steps_pi=np.int64(11))
        assert grid_search_design(s, spec) == grid_search_design(s, GridSpec(steps_pi=11))


class TestBestResponseEquilibrium:
    def test_uninformative(self, ex1):
        f2n, f2a = best_response_equilibrium(ex1, InformationStructure(0.5, 0.5), SPEC)
        assert f2n == pytest.approx(55.0 / 18.0, abs=1e-6)
        assert f2a == pytest.approx(55.0 / 18.0, abs=1e-6)

    def test_full_revelation_all_informed(self, ex1):
        f2n, f2a = best_response_equilibrium(replace(ex1, lambda_=1.0), FULL, SPEC)
        assert f2n == pytest.approx(5.0 / 3.0, abs=1e-6)
        assert f2a == pytest.approx(5.0, abs=1e-6)

    def test_full_revelation_small_fraction(self, ex1):
        f2n, f2a = best_response_equilibrium(replace(ex1, lambda_=0.1), FULL, SPEC)
        assert f2n == pytest.approx(95.0 / 36.0, abs=1e-6)
        assert f2a == pytest.approx(131.0 / 36.0, abs=1e-6)

    def test_agrees_with_closed_form_battery(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            s = random_scenario(rng)
            pi = random_structure(rng)
            out = solve_equilibrium(s, pi)
            f2n, f2a = best_response_equilibrium(s, pi, SPEC)
            assert f2n == pytest.approx(out.f2_given_n, abs=1e-6 * s.demand)
            assert f2a == pytest.approx(out.f2_given_a, abs=1e-6 * s.demand)
            report = verify_wardrop(s, pi, (f2n, f2a))
            assert report.ok, report.violations

    def test_deterministic_for_fixed_seed(self, ex1):
        spec = GridSpec()
        first = best_response_equilibrium(ex1, FULL, spec)
        second = best_response_equilibrium(ex1, FULL, spec)
        assert first == second  # bit-identical

    def test_invalid_scenario_refused(self):
        with pytest.raises(InvalidScenarioError):
            best_response_equilibrium(golden_scenario(tau=1.0), FULL, SPEC)

    def test_iteration_cap_raises_with_gap(self, ex1, monkeypatch):
        monkeypatch.setattr(oracle_mod, "ITERATION_CAP", 2)
        with pytest.raises(ConvergenceError, match="residual cost gap"):
            best_response_equilibrium(ex1, FULL, SPEC)

    @pytest.mark.parametrize("cap", [18, 19, 20])
    def test_iteration_cap_after_some_restarts_converged(self, ex1, monkeypatch, cap):
        # on ex1 under full revelation the five restarts converge after 18 to
        # 21 iterations, so these caps stop some restarts after others have
        # converged, and the error counts only the unconverged ones
        monkeypatch.setattr(oracle_mod, "ITERATION_CAP", cap)
        with pytest.raises(ConvergenceError) as info:
            best_response_equilibrium(ex1, FULL, SPEC)
        found = re.search(r"for (\d+) cells; residual cost gap (\S+)$", str(info.value))
        assert found, str(info.value)
        assert 0 < int(found[1]) < 5
        gap = float(found[2])
        assert math.isfinite(gap) and gap >= SPEC.tol

    def test_flows_are_bit_pinned(self):
        rng = np.random.default_rng(2026)
        got = [
            repr(best_response_equilibrium(random_scenario(rng), random_structure(rng), SPEC))
            for _ in range(len(PINNED_FLOWS))
        ]
        assert got == PINNED_FLOWS

    def test_battery_is_bit_pinned(self, monkeypatch):
        records = _battery_records(monkeypatch)
        assert not any(r.startswith("ConvergenceError: restarts") for r in records)
        assert records[-1] == RESUMED_FLOWS
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == BATTERY_DIGEST

    @pytest.mark.parametrize("s, pi", RESUMED_SPECS)
    def test_restarts_that_disagree_resume(self, s, pi):
        f2n, f2a = best_response_equilibrium(s, pi, SPEC)
        out = solve_equilibrium(s, pi)
        assert f2n == pytest.approx(out.f2_given_n, abs=1e-6 * s.demand)
        assert f2a == pytest.approx(out.f2_given_a, abs=1e-6 * s.demand)

    @pytest.mark.parametrize("tol, spread", [
        # all three passes converge, and the restarts stay apart
        (1e-3, "1.320e-02"),
        # the first resume stalls within its budget: the first pass's spread stands
        (1e-5, "1.323e-02"),
    ])
    def test_restarts_that_still_disagree_raise(self, tol, spread):
        # A weak signal: the restarts' flow gap is about 1,300 times the
        # tolerance they stop at, so no resume brings it within 10 * tol.
        s = NetworkScenario(
            4.037200472812413, 1.0287565968205346, 2.0912607491807242, 12.321890230328087,
            16.668634951716765, 15.043451737707665, 0.1390153286269987, 0.09987673552080545,
            5.978115319181167,
        )
        pi = InformationStructure(3.3575428547558154e-05, 0.9999737248294506)
        with pytest.raises(ConvergenceError, match=f"^restarts disagree by {spread} demand"):
            best_response_equilibrium(s, pi, GridSpec(tol=tol))


class TestGridSearchDesign:
    def test_saturated_regime_loss(self, ex1):
        s = golden_scenario(lambda_=0.6)
        _, best_loss = grid_search_design(s, GridSpec(steps_pi=201, tol=1e-8))
        assert best_loss == pytest.approx(0.4, abs=0.01)

    def test_no_persuasion_scenario_reaches_zero(self):
        s = golden_scenario(p=0.1)
        best_pi, best_loss = grid_search_design(s, GridSpec(steps_pi=101, tol=1e-8))
        assert best_loss == pytest.approx(0.0, abs=0.01)
        # ties at zero break lexicographically, landing on the all-nominal corner
        assert (best_pi.pi_a_given_a, best_pi.pi_n_given_n) == (0.0, 1.0)

    def test_partial_regime_keeps_nominal_signal_truthful(self):
        s = golden_scenario(lambda_=0.2)
        best_pi, _ = grid_search_design(s, GridSpec(steps_pi=101, tol=1e-8))
        assert best_pi.pi_n_given_n >= 1.0 - 1.0 / 100.0 - 1e-12

    def test_matches_closed_form_on_random_battery(self):
        # randomized scenarios, five fractions each; the brute-force minimum
        # must bracket the closed-form optimum within grid resolution
        rng = np.random.default_rng(123)
        spec = GridSpec(steps_pi=101, tol=1e-8)
        spacing = 1.0 / (spec.steps_pi - 1)
        for _ in range(20):
            base = random_scenario(rng)
            for lam in np.linspace(0.0, 1.0, 5):
                s = replace(base, lambda_=float(lam))
                _, best_loss = grid_search_design(s, spec)
                closed = optimal_design(s).loss
                assert abs(best_loss - closed) <= 2.0 * spacing * s.demand

    def test_trace_is_written_and_consistent(self, ex1, tmp_path):
        trace = tmp_path / "cells.csv"
        spec = GridSpec(steps_pi=21, tol=1e-8)
        best_pi, best_loss = grid_search_design(ex1, spec, trace_path=trace)
        lines = trace.read_text().splitlines()
        assert lines[0] == "pi_a_a,pi_n_n,g_value,f2_n,f2_a,loss"
        # feasible half of the grid, boundary included
        assert len(lines) - 1 == sum(
            1
            for pa in np.linspace(0, 1, 21)
            for pn in np.linspace(0, 1, 21)
            if pn >= 1.0 - pa - 1e-12
        )
        losses = [float(line.split(",")[-1]) for line in lines[1:]]
        assert min(losses) == pytest.approx(best_loss, abs=1e-9)
        # spot-check one row against the exact solver
        cells = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        row = cells[("1", "1")]
        out = solve_equilibrium(ex1, FULL)
        assert float(row[2]) == pytest.approx(out.g_value, abs=1e-6)
        assert float(row[3]) == pytest.approx(out.f2_given_n, abs=1e-6)
        assert float(row[4]) == pytest.approx(out.f2_given_a, abs=1e-6)

    def test_trace_is_bit_pinned(self, ex1, tmp_path):
        trace = tmp_path / "cells.csv"
        best_pi, best_loss = grid_search_design(
            ex1, GridSpec(steps_pi=41, tol=1e-9), trace_path=trace
        )
        pinned = InformationStructure(0.675, 1.0)
        assert (best_pi, best_loss) == (pinned, 0.40359375)
        # the loss of the exact equilibrium at that cell, to the last bit
        assert best_loss == spillover(ex1, solve_equilibrium(ex1, pinned))
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "4dfb617036bee5e39601bc1dc69423af87b3c21adee43f3aadc03f2d0bb47e13"
        )

    def test_traced_flows_match_closed_form(self, ex1, tmp_path):
        # each cell is solved exactly, so every traced cell, the
        # zero-probability-signal corners included, matches the closed-form solver
        rng = np.random.default_rng(7)
        scenarios = [ex1, replace(ex1, lambda_=0.0), replace(ex1, lambda_=1.0)]
        scenarios += [random_scenario(rng) for _ in range(5)]
        trace = tmp_path / "cells.csv"
        for s in scenarios:
            grid_search_design(s, GridSpec(steps_pi=11), trace_path=trace)
            rows = list(csv.DictReader(trace.read_text().splitlines()))
            assert {("0", "1"), ("1", "0")} <= {(r["pi_a_a"], r["pi_n_n"]) for r in rows}
            for row in rows:
                pi = InformationStructure(float(row["pi_a_a"]), float(row["pi_n_n"]))
                out = solve_equilibrium(s, pi)
                assert abs(float(row["f2_n"]) - out.f2_given_n) <= EPS * s.demand
                assert abs(float(row["f2_a"]) - out.f2_given_a) <= EPS * s.demand

    def test_vectorized_posteriors_match_scalar(self, ex1, tmp_path):
        # two independent Bayes updates: the oracle's own (_cells) and the closed
        # form's posterior_beliefs; every traced partition value, zero-probability-
        # signal corners included, must match the one solve_equilibrium derives
        trace = tmp_path / "cells.csv"
        grid_search_design(ex1, GridSpec(steps_pi=11, tol=1e-8), trace_path=trace)
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert len(rows) == 66
        for row in rows:
            pi = InformationStructure(float(row["pi_a_a"]), float(row["pi_n_n"]))
            g = solve_equilibrium(ex1, pi).g_value
            assert float(row["g_value"]) == pytest.approx(g, abs=1e-11)


def _imports(path: Path) -> list[str]:
    """The modules a source file of the routegame package imports, anywhere in it."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "routegame." * bool(node.level) + (node.module or "")
            # "from . import x" imports the submodule x.
            imported += [module] if node.module else [module + a.name for a in node.names]
    return imported


def test_oracle_imports_only_the_standard_library_and_model():
    # The oracles certify the closed forms, so they share none of their code:
    # a defect there would otherwise move an answer and its check together.
    imported = _imports(Path(oracle_mod.__file__))
    assert imported
    for name in imported:
        assert not name.startswith(("routegame.equilibrium", "routegame.design")), name
        assert name == "routegame.model" or name.split(".")[0] in sys.stdlib_module_names, name


SOURCES = sorted(Path(oracle_mod.__file__).parent.glob("*.py"))


# The runtime needs only the standard library (pyproject.toml: dependencies = []).
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library_or_routegame(path):
    for name in _imports(path):
        top = name.split(".")[0]
        assert top == "routegame" or top in sys.stdlib_module_names, name


def test_every_source_file_is_checked():
    assert {p.name for p in SOURCES} >= {
        "__init__.py", "__main__.py", "cli.py", "design.py", "equilibrium.py", "model.py",
        "oracle.py",
    }
