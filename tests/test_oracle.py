import csv
import hashlib
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import golden_scenario, random_scenario, random_structure
from routegame import (
    ConvergenceError,
    DomainError,
    GridSpec,
    InformationStructure,
    InvalidScenarioError,
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


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.steps_pi == 201 and spec.tol > 0
        assert [f.name for f in fields(GridSpec)] == ["steps_pi", "tol"]

    @pytest.mark.parametrize("kwargs", [{"steps_pi": 1}, {"tol": float("nan")}, {"tol": 0.0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)


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
        # 21 iterations, so these caps stop the batch after it has dropped
        # its finished cells
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
        assert (best_pi, best_loss) == (InformationStructure(0.675, 1.0), 0.4035937500392356)
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "d210f49dde7242d9275336694822ed29691935454a6edb7c0cc220df24dd6366"
        )

    def test_vectorized_posteriors_match_scalar(self, ex1, tmp_path):
        # the grid engine derives beliefs vectorized; every traced partition
        # value, zero-probability-signal corners included, must match the scalar op
        trace = tmp_path / "cells.csv"
        grid_search_design(ex1, GridSpec(steps_pi=11, tol=1e-8), trace_path=trace)
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert len(rows) == 66
        for row in rows:
            pi = InformationStructure(float(row["pi_a_a"]), float(row["pi_n_n"]))
            g = solve_equilibrium(ex1, pi).g_value
            assert float(row["g_value"]) == pytest.approx(g, abs=1e-11)
