import csv
from dataclasses import replace

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
    partition_value,
    solve_equilibrium,
    verify_wardrop,
)
import routegame.oracle as oracle_mod

FULL = InformationStructure.full_revelation()
SPEC = GridSpec(tol=1e-9)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.steps_pi == 201 and spec.tol > 0

    @pytest.mark.parametrize("kwargs", [{"steps_pi": 1}, {"steps_flow": 0}, {"tol": 0.0}])
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
        spec = GridSpec(tol=1e-9, seed=99)
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
        assert float(row[2]) == pytest.approx(partition_value(ex1, FULL), abs=1e-6)
        assert float(row[3]) == pytest.approx(out.f2_given_n, abs=1e-6)
        assert float(row[4]) == pytest.approx(out.f2_given_a, abs=1e-6)

    def test_vectorized_posteriors_match_scalar(self, ex1, tmp_path):
        # the grid engine derives beliefs vectorized; every traced partition
        # value, zero-probability-signal corners included, must match the scalar op
        trace = tmp_path / "cells.csv"
        grid_search_design(ex1, GridSpec(steps_pi=11, tol=1e-8), trace_path=trace)
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert len(rows) == 66
        for row in rows:
            pi = InformationStructure(float(row["pi_a_a"]), float(row["pi_n_n"]))
            assert float(row["g_value"]) == pytest.approx(partition_value(ex1, pi), abs=1e-11)
