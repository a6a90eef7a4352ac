import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import DEMO_CONFIG, golden_scenario
import routegame
from routegame import cli, equilibrium, model
from routegame import optimal_design, solve_equilibrium, tau_bounds, InformationStructure

CONFIG_TEXT = DEMO_CONFIG.read_text()
# Child processes import the routegame this process imported, so the CLI
# tests also run in a checkout that is not installed.
PACKAGE_ROOT = str(Path(routegame.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
)

# sha256 of the CSV and of its .meta.json sidecar for a 101-point sweep of the
# demo config, keyed by (axis, start, stop, output group or None for all
# groups); the tau range includes invalid points.
DEMO_SWEEP_DIGESTS = {
    ("lambda", "0", "1", None): (
        "43140c5ba869df3b72f181c4adebc0b62065156a0720e0549a9b9d29db04a6ae",
        "1c92ca346b710ac71898857b13248de62bbcd48576d5a2af9670aa02869ffc88",
    ),
    ("lambda", "0", "1", "costs"): (
        "0a1b7cd13df04959af73ef225e559e7e2e43287a22b4888925eea6b5896c1a4b",
        "5152e3745ad645e46ba4804b6f153705af752d7b6e842f8d8ac0ec972af39c58",
    ),
    ("lambda", "0", "1", "flows"): (
        "c106ff3592945630e1b5457109f7119de02870b2446ac26a0f7c8204766485d5",
        "1aad4b6f1bbb2cf2d63b044d0be6d034d6ec391294b5021106e908a4c796ebab",
    ),
    ("lambda", "0", "1", "loss"): (
        "43d32df56bb8cb20872854e35f03ffe1e0b4e5879947bf23c676736a85251070",
        "9941ff6049ea0ab132485882e345c8c1c2426075c1fe9a5551278ceae9e3efd3",
    ),
    ("lambda", "0", "1", "pi_star"): (
        "bae2ce9dfca31eab6760bfec79a9040b2281a20dcb6fc35b3401a7a113f65003",
        "b5ab970028b0caac9393878b9b9f9e21a0939b60ba6f2e9ba6ccb79b4cba5b65",
    ),
    ("p", "0", "0.999", None): (
        "97b7bb2e692d5da0640dc12f44f91dc32e31bc31ae1d6db938f6ac0b0b751037",
        "fc03185a336743a0018b835c7b848ba1e50da493029048bd818bfa86e2c29bed",
    ),
    ("tau", "1", "5", None): (
        "06bfd191f1a49ccffa159e42709c5beaaf51bba97c28db99d2966ca5b3b54c75",
        "3ae86dd1cd7fcf8a09012b122b06ad2b33cc7c06321d31b65da43f065bd6b578",
    ),
}


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "routegame", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=CHILD_ENV,
    )


@pytest.fixture
def config(tmp_path) -> Path:
    path = tmp_path / "network.cfg"
    path.write_text(CONFIG_TEXT)
    return path


class TestValidateCommand:
    def test_clean_config_exits_zero(self, config):
        result = run_cli("validate", str(config))
        assert result.returncode == 0
        assert "scenario valid" in result.stdout

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("\n".join(l for l in CONFIG_TEXT.splitlines() if "tau" not in l))
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert "missing keys: tau" in result.stderr

    def test_out_of_range_tau_is_domain_error(self, tmp_path):
        path = tmp_path / "badtau.cfg"
        path.write_text(CONFIG_TEXT.replace("tau = 2.5", "tau = 1"))
        result = run_cli("validate", str(path))
        assert result.returncode == 1
        assert "tau below admissible range" in result.stdout

    def test_unreadable_path_is_usage_error(self):
        result = run_cli("validate", "/nonexistent/never.cfg")
        assert result.returncode == 2


class TestEquilibriumCommand:
    def test_json_record_matches_library(self, config):
        result = run_cli("equilibrium", str(config), "--pi-aa", "1", "--pi-nn", "1")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        out = solve_equilibrium(golden_scenario(), InformationStructure.full_revelation())
        assert record["branch"] == "informed_switch_all"
        assert record["f2_n"] == pytest.approx(out.f2_given_n, rel=1e-11)
        assert record["cost_avg"] == pytest.approx(out.cost_avg, rel=1e-11)

    def test_infeasible_structure_is_domain_error(self, config):
        result = run_cli("equilibrium", str(config), "--pi-aa", "0.2", "--pi-nn", "0.2")
        assert result.returncode == 1
        assert "infeasible" in result.stderr


class TestDesignCommand:
    def test_partial_regime_json(self, config):
        result = run_cli("design", str(config))
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["regime"] == "partial_disclosure"
        assert record["pi_a_a"] == pytest.approx(2.0 / 3.0, abs=1e-11)
        assert record["loss"] == pytest.approx(0.4, abs=1e-11)
        assert record["lambda_low"] == pytest.approx(2.0 / 15.0, abs=1e-11)

    def test_no_persuasion_when_prior_low(self, tmp_path):
        path = tmp_path / "lowp.cfg"
        path.write_text(CONFIG_TEXT.replace("p = 0.3", "p = 0.1"))
        result = run_cli("design", str(path))
        record = json.loads(result.stdout)
        assert record["regime"] == "no_persuasion"
        assert record["loss"] == 0
        assert record["lambda_low"] is None

    def test_full_disclosure_when_fraction_small(self, tmp_path):
        path = tmp_path / "smalllam.cfg"
        path.write_text(CONFIG_TEXT.replace("lambda_ = 0.2", "lambda_ = 0.05"))
        record = json.loads(run_cli("design", str(path)).stdout)
        assert record["regime"] == "full_disclosure"
        assert record["pi_a_a"] == 1

    def test_infinite_demand_is_invalid_scenario(self, tmp_path):
        path = tmp_path / "infdemand.cfg"
        path.write_text(CONFIG_TEXT.replace("demand = 10.0\n", "demand = inf\n"))
        result = run_cli("design", str(path))
        assert result.returncode == 1
        assert "invalid scenario" in result.stderr
        assert "demand must be finite, got inf" in result.stderr
        assert "threshold ordering" not in result.stderr

    def test_internal_check_failure_is_domain_error(self, config, monkeypatch, capsys):
        def failing(scenario):
            raise ArithmeticError("closed-form loss disagrees with realized spillover")

        monkeypatch.setattr(cli, "optimal_design", failing)
        assert cli.main(["design", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam", [0.2, 0.6])
    @pytest.mark.parametrize("edge", ["p", "tau"])
    def test_coinciding_thresholds_solve(self, tmp_path, capsys, edge, lam):
        # lambda_low == lambda_high at p = 1 and at the lower tau bound; at
        # p = 0.5 rounding puts lambda_low a little above lambda_high
        s = golden_scenario(lambda_=lam)
        s = replace(s, p=1.0) if edge == "p" else replace(s, p=0.5, tau=tau_bounds(s)[0])
        path = tmp_path / "edge.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in s.to_dict().items()))
        assert cli.main(["design", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["pi_a_a"] == 1

    def test_csv_format(self, config):
        result = run_cli("design", str(config), "--format", "csv")
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[0][0] == "regime"
        assert rows[1][0] == "partial_disclosure"
        record = dict(zip(rows[0], rows[1]))
        assert float(record["loss"]) == pytest.approx(0.4, abs=1e-11)


class TestSweepCommand:
    def test_signal_policy_series(self, config, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "0", "--stop", "1",
            "--count", "11", "--outputs", "pi_star", "loss", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 11
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "lambda"
        assert header == [
            "lambda", "regime", "pi_a_a", "pi_n_n", "loss", "loss_no_info",
            "loss_full_info", "error",
        ]
        series = {float(r["lambda"]): r for r in rows}
        assert float(series[0.0]["pi_a_a"]) == 1.0
        assert float(series[0.1]["pi_a_a"]) == 1.0
        assert float(series[0.2]["pi_a_a"]) == pytest.approx(2.0 / 3.0, abs=1e-11)
        for lam in (0.3, 0.5, 1.0):
            assert float(series[lam]["pi_a_a"]) == pytest.approx(8.0 / 15.0, abs=1e-11)
        losses = [float(r["loss"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] == pytest.approx(0.4, abs=1e-11)
        # comparison baselines: withholding everything vs telling population 1 everything
        assert float(series[0.5]["loss_no_info"]) == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert float(series[1.0]["loss_full_info"]) == pytest.approx(0.75, abs=1e-9)

    def test_cost_columns_track_populations(self, config, tmp_path):
        out = tmp_path / "costs.csv"
        run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "0", "--stop", "1",
            "--count", "21", "--outputs", "costs", "--out", str(out),
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows:
            lam = float(row["lambda"])
            c1, c2 = float(row["cost_pop1"]), float(row["cost_pop2"])
            if lam < 0.25:
                assert c1 <= c2 + 1e-9
            else:
                assert c1 == pytest.approx(c2, abs=1e-8)

    def test_byte_stable_and_sidecar(self, config, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ("sweep", str(config), "--axis", "p", "--start", "0.05", "--stop", "0.95",
                "--count", "7", "--outputs", "loss")
        run_cli(*args, "--out", str(out_a))
        run_cli(*args, "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["sweep"]["axis"] == "p"
        assert meta["sweep"]["count"] == 7
        assert meta["scenario"]["demand"] == 10

    def test_invalid_points_reported_not_dropped(self, config, tmp_path):
        out = tmp_path / "tau.csv"
        result = run_cli(
            "sweep", str(config), "--axis", "tau", "--start", "1.0", "--stop", "5.0",
            "--count", "5", "--outputs", "loss", "--out", str(out),
        )
        assert result.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        assert "tau below admissible range" in rows[0]["error"]
        assert rows[2]["error"] == ""  # tau = 3 is admissible

    def test_p_axis_solves_at_one(self, config, tmp_path):
        out = tmp_path / "p.csv"
        argv = ["sweep", str(config), "--axis", "p", "--start", "0", "--stop", "1",
                "--count", "11", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[-1]["p"]) == 1.0
        assert rows[-1]["error"] == ""

    def test_start_after_stop_is_usage_error(self, config):
        result = run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "1", "--stop", "0",
            "--count", "3",
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "start, stop",
        [("0", "inf"), ("-inf", "1"), ("nan", "1"), ("0", "nan"), ("-1e308", "1e308")],
    )
    def test_non_finite_range_is_usage_error(self, config, capsys, start, stop):
        # --stop inf used to exit 0 with a nan axis value (0 + 0 * inf),
        # --start nan passed the start > stop check, and a range wider than
        # the largest float gave the same nan through an infinite step
        argv = ["sweep", str(config), "--axis", "lambda", f"--start={start}", f"--stop={stop}",
                "--count", "3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key",
        [pytest.param(key, id="-".join(filter(None, key))) for key in DEMO_SWEEP_DIGESTS],
    )
    def test_demo_sweeps_are_byte_pinned(self, tmp_path, key):
        axis, start, stop, group = key
        out = tmp_path / f"{axis}.csv"
        argv = ["sweep", str(DEMO_CONFIG), "--axis", axis, "--start", start, "--stop", stop,
                "--count", "101", "--out", str(out)]
        if group is not None:
            argv += ["--outputs", group]
        assert cli.main(argv) == 0
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, tmp_path / f"{axis}.csv.meta.json")
        )
        assert digests == DEMO_SWEEP_DIGESTS[key]

    def test_one_validation_per_point(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        validate = counted(model, "validate_scenario")
        monkeypatch.setattr(model, "validate_scenario", validate)
        monkeypatch.setattr(cli, "validate_scenario", validate)
        monkeypatch.setattr(
            equilibrium, "posterior_beliefs", counted(equilibrium, "posterior_beliefs")
        )
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "lambda", "--start", "0", "--stop", "1",
                "--count", "101", "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0
        # one validation per point; one Bayes update per solved equilibrium:
        # the optimum and the two baselines
        assert calls == {"validate_scenario": 101, "posterior_beliefs": 303}

    def test_stdout_when_no_out_path(self, config):
        result = run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "0.2", "--stop", "0.2",
            "--count", "1", "--outputs", "loss",
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0].startswith("lambda,")


class TestOracleCommand:
    def test_reports_gap_to_closed_form(self, config):
        result = run_cli("oracle", str(config), "--grid", "41")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        solution = optimal_design(golden_scenario())
        assert record["closed_form_loss"] == pytest.approx(solution.loss, abs=1e-9)
        assert abs(record["closed_form_gap"]) <= 2.0 * (1.0 / 40.0) * 10.0
        assert record["pi_n_n"] >= 1.0 - 1.0 / 40.0 - 1e-12

    @pytest.mark.parametrize("flag", [("--grid", "1")])
    def test_bad_grid_is_usage_error(self, config, flag):
        result = run_cli("oracle", str(config), *flag)
        assert result.returncode == 2
        assert result.stderr.startswith("usage error:")

    def test_tol_is_not_an_option(self, config):
        result = run_cli("oracle", str(config), "--tol", "1e-9")
        assert result.returncode == 2
        assert "unrecognized arguments: --tol" in result.stderr

    def test_trace_file(self, config, tmp_path):
        trace = tmp_path / "trace.csv"
        run_cli("oracle", str(config), "--grid", "11", "--trace", str(trace))
        assert trace.read_text().startswith("pi_a_a,pi_n_n,g_value")


# model, equilibrium, design, then oracle names.
ALL_NAMES = [
    "EPS", "ConvergenceError", "DomainError", "InformationStructure", "InvalidScenarioError",
    "NetworkScenario", "ScenarioParseError", "ValidationReport", "load_scenario",
    "parse_scenario", "tau_bounds", "validate_scenario",
    "BeliefSystem", "Branch", "EquilibriumOutcome", "InfeasibleStrategyError",
    "VerificationReport", "average_spillover", "posterior_beliefs", "solve_equilibrium",
    "verify_wardrop",
    "DesignSolution", "Regime", "RegimeError", "Thresholds", "lambda_thresholds",
    "optimal_design", "p_bar",
    "GridSpec", "best_response_equilibrium", "grid_search_design",
]


class TestLazyOracleImport:
    @pytest.mark.parametrize(
        "args",
        [
            ("-c", "import routegame"),
            ("-m", "routegame", "validate", "{cfg}"),
            ("-m", "routegame", "design", "{cfg}"),
            ("-m", "routegame", "equilibrium", "{cfg}", "--pi-aa", "1", "--pi-nn", "1"),
            # the dynamics are plain Python; only the grid search loads numpy
            ("-c", "import routegame as r; r.best_response_equilibrium("
             "r.load_scenario('{cfg}'), r.InformationStructure(0.6, 0.9), r.GridSpec())"),
        ],
    )
    def test_numpy_not_imported(self, config, args):
        # -X importtime lists every module the process imports on stderr
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *(a.format(cfg=config) for a in args)],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "routegame" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}

    def test_oracle_names_resolve(self):
        import routegame
        import routegame.oracle as oracle

        assert routegame.GridSpec is oracle.GridSpec
        assert routegame.best_response_equilibrium is oracle.best_response_equilibrium
        assert routegame.grid_search_design is oracle.grid_search_design
        assert routegame.ConvergenceError is oracle.ConvergenceError

    def test_all_unchanged(self):
        import routegame

        assert routegame.__all__ == ALL_NAMES
        assert all(hasattr(routegame, name) for name in ALL_NAMES)


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"alpha1_a = fast\n", "invalid number"),
            (b"alpha1_a = 3.0\xff\n", "not valid UTF-8 at byte 14"),
        ],
        ids=["bad-number", "not-utf8"],
    )
    def test_garbled_config_is_parse_error(self, tmp_path, content, message):
        path = tmp_path / "garbled.cfg"
        path.write_bytes(content)
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert "parse error" in result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr
