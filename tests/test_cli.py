import codecs
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import DEMO_CONFIG, golden_scenario, random_scenario, spillover
import routegame
from routegame import cli, design, equilibrium, model, oracle
from routegame import optimal_design, solve_equilibrium, tau_bounds, InformationStructure
from routegame import posterior_beliefs, verify_wardrop

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
# sha256 over the CSVs of the 201-point sweeps in test_random_sweeps_are_byte_pinned.
RANDOM_SWEEPS_DIGEST = "31c1a8074984241ebaa2d18b830971a04bc5fb2303c84915cb39974053797ce9"
# (start, count) pairs of a sweep to stop = 1 whose last start + i * width
# rounds past 1: the pairs with start 0.1 to 0.9 and count 2 to 59 that do.
PAST_ONE = [
    (0.1, 8), (0.1, 15), (0.1, 26), (0.1, 29), (0.1, 42), (0.1, 50), (0.1, 51), (0.1, 57),
    (0.2, 12), (0.2, 23), (0.2, 45),
]


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

        monkeypatch.setattr(design, "optimal_design", failing)
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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["design"], "081a01b1cee1d50166d466e0be97bea02485ce133d62dd5c01c7972809b66def"),
            (
                ["equilibrium", "--pi-aa", "0.7", "--pi-nn", "0.9"],
                "f4022ff1e4a6df407c2716e261bdcff1dc793bfe0b253b8b216e90a94181fbe2",
            ),
        ],
        ids=["design", "equilibrium"],
    )
    def test_one_row_csv_is_byte_pinned(self, capsys, argv, digest):
        # sha256 of the header and record lines of the demo config
        assert cli.main([argv[0], str(DEMO_CONFIG), *argv[1:], "--format", "csv"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_no_persuasion_csv_is_byte_pinned(self, tmp_path, capsys):
        # the demo config at p = 0.1, where lambda_low and lambda_high are empty fields
        path = tmp_path / "lowp.cfg"
        path.write_text(CONFIG_TEXT.replace("p = 0.3", "p = 0.1"))
        assert cli.main(["design", str(path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert ",,," in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "606547c0f48b4b3d39db7ec24a191e30c68661b8d6a36df80a47f8eefb5d243a"
        )


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

    @pytest.mark.parametrize("axis", ["lambda", "p"])
    def test_end_point_past_one_is_stop(self, axis):
        # these sweeps used to end in an error row such as
        # "lambda_ must lie in [0, 1], got 1.0000000000000002"
        def sweep(start, count):
            request = cli.SweepRequest(
                scenario=golden_scenario(), axis=axis, start=start, stop=1.0, count=count,
                outputs=frozenset(cli.OUTPUT_GROUPS),
            )
            columns, rows = cli.run_sweep(request)
            return [dict(zip(columns, row)) for row in rows]

        at_stop = sweep(1.0, 1)[-1]
        assert at_stop["error"] == ""
        for start, count in PAST_ONE:
            assert start + (count - 1) * ((1.0 - start) / (count - 1)) > 1.0
            rows = sweep(start, count)
            assert rows[-1] == at_stop
            assert all(row[axis] <= 1.0 and row["error"] == "" for row in rows)
        # the demo p sweep to 0.999 pinned in DEMO_SWEEP_DIGESTS ends at
        # 0.9990000000000001, a valid prior that the rule leaves alone

    def test_start_after_stop_is_usage_error(self, config):
        result = run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "1", "--stop", "0",
            "--count", "3",
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "count", [3.0, 2.5, "3", np.float64(3)], ids=["float", "non-whole", "str", "numpy-float"]
    )
    def test_non_integer_count_rejected(self, count):
        # a float used to pass here and fail in axis_values with TypeError
        with pytest.raises(model.DomainError, match="count must be a positive integer"):
            cli.SweepRequest(
                scenario=golden_scenario(), axis="lambda", start=0.0, stop=1.0, count=count,
                outputs=frozenset(cli.OUTPUT_GROUPS),
            )

    @pytest.mark.parametrize(
        "field, value, named",
        [("axis", "demand", "demand"), ("outputs", frozenset({"pi_star", "regret"}), "regret")],
    )
    def test_unknown_axis_or_output_rejected(self, field, value, named):
        # argparse choices stop the CLI first, so only library callers reach these
        request = dict(
            scenario=golden_scenario(), axis="lambda", start=0.0, stop=1.0, count=3,
            outputs=frozenset(cli.OUTPUT_GROUPS),
        )
        with pytest.raises(model.DomainError, match=f"unknown .*'{named}'"):
            cli.SweepRequest(**{**request, field: value})

    def test_numpy_integer_count_accepted(self):
        requests = [
            cli.SweepRequest(
                scenario=golden_scenario(), axis="lambda", start=0.0, stop=1.0, count=count,
                outputs=frozenset(cli.OUTPUT_GROUPS),
            )
            for count in (np.int64(3), 3)
        ]
        assert cli.run_sweep(requests[0]) == cli.run_sweep(requests[1])

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

    def test_random_sweeps_are_byte_pinned(self, tmp_path):
        # 15 seeded scenarios, demand x1 to x1e4, five sweeps along each
        # axis over its whole range, all output groups
        rng = np.random.default_rng(15)
        digest, regimes = hashlib.sha256(), Counter()
        for i in range(15):
            s, scale = random_scenario(rng), 10.0 ** rng.uniform(0.0, 4.0)
            s = replace(s, b1=s.b1 * scale, b2=s.b2 * scale, demand=s.demand * scale,
                        tau=s.tau * scale)
            axis = ("lambda", "p", "tau")[i % 3]
            start, stop = tau_bounds(s) if axis == "tau" else (0.0, 1.0)
            config, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.csv"
            config.write_text("".join(f"{k} = {v!r}\n" for k, v in s.to_dict().items()))
            argv = ["sweep", str(config), "--axis", axis, "--start", repr(start),
                    "--stop", repr(stop), "--count", "201", "--out", str(out)]
            assert cli.main(argv) == 0
            data = out.read_bytes()
            digest.update(data)
            rows = list(csv.DictReader(data.decode().splitlines()))
            assert not any(row["error"] for row in rows)
            regimes.update(row["regime"] for row in rows)
        assert set(regimes) == {r.value for r in design.Regime}
        assert digest.hexdigest() == RANDOM_SWEEPS_DIGEST

    @staticmethod
    def count_calls(monkeypatch, argv: list[str]) -> Counter:
        """Validations and Bayes updates made by the in-process ``cli.main(argv)``."""
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
        monkeypatch.setattr(equilibrium, "_posteriors", counted(equilibrium, "_posteriors"))
        assert cli.main(argv) == 0
        return calls

    def test_one_validation_per_point(self, tmp_path, monkeypatch):
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "lambda", "--start", "0", "--stop", "1",
                "--count", "101", "--out", str(tmp_path / "sweep.csv")]
        calls = self.count_calls(monkeypatch, argv)
        # one validation per point; one Bayes update per distinct structure
        # among the optimum and the two baselines: the 14 points whose optimum
        # is no information or full information solve two structures, not three
        assert calls == {"validate_scenario": 101, "_posteriors": 289}

    def test_p_sweep_solves_each_point_apart(self, tmp_path, monkeypatch):
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "p", "--start", "0", "--stop", "0.999",
                "--count", "101", "--out", str(tmp_path / "sweep.csv")]
        calls = self.count_calls(monkeypatch, argv)
        # the equilibrium depends on p, so no solve is shared between points;
        # within a point each distinct structure is solved once
        assert calls == {"validate_scenario": 101, "_posteriors": 236}

    def test_tau_sweep_solves_each_baseline_once(self, tmp_path, monkeypatch):
        low, high = tau_bounds(golden_scenario())
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "tau", "--start", repr(low),
                "--stop", repr(high), "--count", "101", "--out", str(tmp_path / "sweep.csv")]
        calls = self.count_calls(monkeypatch, argv)
        # the equilibrium does not depend on tau, so the 101 points share one
        # solve of each distinct structure: the two baselines, which are also
        # the optimum of 76 points, and the 25 partial and saturated optima
        # (103 updates when only the baselines were shared, 227 before that)
        assert calls == {"validate_scenario": 101, "_posteriors": 27}

    def test_sweep_points_build_no_records(self, tmp_path, monkeypatch):
        # Only the public functions wrap results in records: a sweep point
        # passes posteriors, structures and outcomes as floats and tuples.
        built = Counter()
        for cls in (equilibrium.BeliefSystem, InformationStructure, equilibrium.EquilibriumOutcome):
            def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "lambda", "--start", "0", "--stop", "1",
                "--count", "101", "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 102
        assert built == {}

    def test_error_rows_are_quoted_like_csv_writer(self, tmp_path, monkeypatch):
        message = 'a, "b"'
        original = design._design

        def failing_at_some_points(s, solved):
            if round(s.lambda_ * 10) % 3 == 1:
                raise ArithmeticError(message)
            return original(s, solved)

        monkeypatch.setattr(design, "_design", failing_at_some_points)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "lambda", "--start", "0", "--stop", "1",
                "--count", "11", "--out", str(out)]
        assert cli.main(argv) == 0
        request = cli.SweepRequest(
            scenario=golden_scenario(), axis="lambda", start=0.0, stop=1.0, count=11,
            outputs=frozenset(cli.OUTPUT_GROUPS),
        )
        columns, rows = cli.run_sweep(request)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                "" if v is None else v if isinstance(v, str) else f"{v:.12g}" for v in row
            )
        assert out.read_bytes() == expected.getvalue().encode()
        errors = [row["error"] for row in csv.DictReader(io.StringIO(out.read_text()))]
        assert errors == [message if i % 3 == 1 else "" for i in range(11)]

    def test_rows_are_tuples_aligned_with_columns(self):
        # the demo tau sweep over [1, 5] starts with refused points
        request = cli.SweepRequest(
            scenario=golden_scenario(), axis="tau", start=1.0, stop=5.0, count=101,
            outputs=frozenset(cli.OUTPUT_GROUPS),
        )
        columns, rows = cli.run_sweep(request)
        outputs = [c for group in cli.OUTPUT_COLUMNS.values() for c in group]
        assert columns == ["tau", "regime", *outputs, "error"]
        errors = 0
        for value, row in zip(request.axis_values(), rows, strict=True):
            assert type(row) is tuple and len(row) == len(columns)
            assert row[0] == value
            if row[-1]:
                assert row[1:-1] == (None,) * (len(columns) - 2)
                errors += 1
            else:
                assert None not in row
        assert 0 < errors < len(rows)

    def test_output_groups_project_the_full_csv(self, tmp_path):
        # every non-empty subset of the groups, on a sweep with error rows,
        # writes the columns of the all-groups CSV that the subset names
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "tau", "--start", "1", "--stop", "5",
                "--count", "101", "--out", str(tmp_path / "all.csv")]
        assert cli.main(argv) == 0
        header, *lines = csv.reader(io.StringIO((tmp_path / "all.csv").read_text()))
        assert any(line[-1] for line in lines)
        subsets = [
            groups for n in range(1, len(cli.OUTPUT_GROUPS) + 1)
            for groups in itertools.combinations(cli.OUTPUT_GROUPS, n)
        ]
        assert len(subsets) == 15
        for groups in subsets:
            out = tmp_path / f"{'-'.join(groups)}.csv"
            assert cli.main([*argv[:-1], str(out), "--outputs", *groups]) == 0
            keep = ["tau", "regime", *(c for g in groups for c in cli.OUTPUT_COLUMNS[g]), "error"]
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows(
                [line[header.index(c)] for c in keep] for line in [header, *lines]
            )
            assert out.read_text() == expected.getvalue(), groups

    def test_rows_match_public_api(self):
        # seeded scenarios, demand x1 to x1e4, each axis swept a little past
        # its valid range so that some points are refused
        rng = np.random.default_rng(18)
        baselines = {"no_info": InformationStructure.no_information(),
                     "full_info": InformationStructure.full_revelation()}
        solved = refused = 0
        for i in range(18):
            s, scale = random_scenario(rng, persuasion=i % 2 == 0), 10.0 ** rng.uniform(0.0, 4.0)
            s = replace(s, b1=s.b1 * scale, b2=s.b2 * scale, demand=s.demand * scale,
                        tau=s.tau * scale)
            axis = ("lambda", "p", "tau")[i % 3]
            low, high = tau_bounds(s) if axis == "tau" else (0.0, 1.0)
            margin = 0.05 * (high - low)
            request = cli.SweepRequest(
                scenario=s, axis=axis, start=low - margin, stop=high + margin, count=67,
                outputs=frozenset(cli.OUTPUT_GROUPS),
            )
            columns, rows = cli.run_sweep(request)
            for value, row in zip(request.axis_values(), rows):
                row = dict(zip(columns, row))
                point = replace(s, **{cli.AXIS_FIELDS[axis]: value})
                try:
                    solution = optimal_design(point)
                    outcomes = {k: solve_equilibrium(point, pi) for k, pi in baselines.items()}
                except model.InvalidScenarioError as exc:
                    assert row["error"] == "; ".join(exc.report.violations)
                    refused += 1
                    continue
                except (model.DomainError, ArithmeticError) as exc:
                    assert row["error"] == str(exc)
                    continue
                expected = solution.to_record()
                expected.update(
                    {axis: value, "f1_n": solution.outcome.f1_given_n,
                     "f1_a": solution.outcome.f1_given_a, "error": ""},
                )
                for k, out in outcomes.items():
                    expected[f"loss_{k}"] = spillover(point, out)
                    expected[f"cost_avg_{k}"] = out.cost_avg
                assert {c: repr(row[c]) for c in columns} == {
                    c: repr(expected[c]) for c in columns
                }
                solved += 1
        assert solved > 800 and refused > 50

    def test_stdout_when_no_out_path(self, config):
        result = run_cli(
            "sweep", str(config), "--axis", "lambda", "--start", "0.2", "--stop", "0.2",
            "--count", "1", "--outputs", "loss",
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0].startswith("lambda,")

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        # the demo tau sweep over [1, 5] starts with error rows
        argv = ["sweep", str(DEMO_CONFIG), "--axis", "tau", "--start", "1", "--stop", "5",
                "--count", "101"]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "tau.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert stdout.splitlines()[1].endswith("tau below admissible range: tau=1.0 < 1.66666666667")
        assert stdout == out.read_text()


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "b585323da98b3d2b0225dd66dd9f66238b32bff6da87c984a5ddda2a1599eb15"),
            (["--grid", "41"], "05fdecb82d2401accd9dc6fe12ee880228f5f70c7568c02d879443dbd7b57ce9"),
        ],
        ids=["default", "grid-41"],
    )
    def test_json_is_byte_pinned(self, capsys, argv, digest):
        # sha256 of the JSON record for the demo config
        assert cli.main(["oracle", str(DEMO_CONFIG), *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# model, equilibrium, design, then oracle names.
ALL_NAMES = [
    "EPS", "DomainError", "InformationStructure", "InvalidScenarioError", "NetworkScenario",
    "ScenarioParseError", "ValidationReport", "load_scenario", "parse_scenario", "tau_bounds",
    "validate_scenario",
    "BeliefSystem", "Branch", "EquilibriumOutcome", "VerificationReport", "posterior_beliefs",
    "solve_equilibrium", "verify_wardrop",
    "DesignSolution", "Regime", "RegimeError", "Thresholds", "lambda_thresholds",
    "optimal_design", "p_bar",
    "ConvergenceError", "GridSpec", "best_response_equilibrium", "grid_search_design",
]


# The routegame modules beyond the scenario model, which a command loads only if it runs them.
SOLVER_MODULES = {"routegame.equilibrium", "routegame.design", "routegame.oracle"}


class TestLazyOracleImport:
    @pytest.mark.parametrize(
        "args",
        [
            ("-c", "import routegame"),
            ("-m", "routegame", "validate", "{cfg}"),
            ("-m", "routegame", "design", "{cfg}"),
            ("-m", "routegame", "equilibrium", "{cfg}", "--pi-aa", "1", "--pi-nn", "1"),
            ("-c", "import routegame as r; r.best_response_equilibrium("
             "r.load_scenario('{cfg}'), r.InformationStructure(0.6, 0.9), r.GridSpec())"),
            ("-m", "routegame", "oracle", "{cfg}"),
            ("-m", "routegame", "oracle", "{cfg}", "--grid", "11", "--trace", "{trace}"),
        ],
    )
    def test_numpy_not_imported(self, config, tmp_path, args):
        imported = self.imported_modules(args, config, tmp_path)
        assert not {m for m in imported if m.split(".")[0] == "numpy"}

    @staticmethod
    def imported_modules(args, config, tmp_path) -> set[str]:
        """The modules a ``python`` process with ``args`` imports."""
        # -X importtime lists every module the process imports on stderr
        trace = tmp_path / "trace.csv"
        result = subprocess.run(
            [sys.executable, "-X", "importtime",
             *(a.format(cfg=config, trace=trace) for a in args)],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "routegame" in imported
        return imported

    @pytest.mark.parametrize(
        "args, absent",
        [
            (("-c", "import routegame"), {"routegame.model", *SOLVER_MODULES}),
            (("-m", "routegame", "validate", "{cfg}"), {*SOLVER_MODULES, "json", "csv"}),
            (("-m", "routegame", "equilibrium", "{cfg}", "--pi-aa", "1", "--pi-nn", "1"),
             {"routegame.design", "routegame.oracle"}),
            (("-m", "routegame", "design", "{cfg}"), {"routegame.oracle"}),
            (("-m", "routegame", "design", "{cfg}", "--format", "csv"),
             {"routegame.oracle", "json", "csv"}),
            (("-m", "routegame", "sweep", "{cfg}", "--axis", "lambda", "--start", "0",
              "--stop", "1", "--count", "3"), {"routegame.oracle"}),
        ],
        ids=["import", "validate", "equilibrium", "design", "design-csv", "sweep"],
    )
    def test_command_loads_only_what_it_runs(self, config, tmp_path, args, absent):
        assert not self.imported_modules(args, config, tmp_path) & absent

    def test_public_names_resolve(self, monkeypatch):
        import routegame

        modules = [model, equilibrium, design, oracle]
        assert routegame.__all__ == [name for m in modules for name in m.__all__]
        for module in modules:
            for name in module.__all__:
                # drop what earlier lookups cached, so each name resolves afresh
                monkeypatch.delitem(vars(routegame), name, raising=False)
                assert getattr(routegame, name) is getattr(module, name), name
                assert vars(routegame)[name] is getattr(module, name), name

    def test_star_import_and_dir_list_the_public_names(self):
        import routegame

        namespace = {}
        exec("from routegame import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(routegame.__all__)
        submodules = {"model", "equilibrium", "design", "oracle"}
        assert set(dir(routegame)) >= {*routegame.__all__, *submodules}

    def test_unknown_name_is_attribute_error(self):
        import routegame

        with pytest.raises(AttributeError, match="'no_such_name'"):
            routegame.no_such_name
        assert not hasattr(routegame, "no_such_name")

    def test_all_unchanged(self):
        import routegame

        assert routegame.__all__ == ALL_NAMES
        assert all(hasattr(routegame, name) for name in ALL_NAMES)


def test_cli_lists_only_names_used_outside_it():
    # the console script runs main; the benchmark uses the rest
    assert cli.__all__ == [
        "AXIS_FIELDS", "OUTPUT_COLUMNS", "OUTPUT_GROUPS", "SweepRequest", "main", "run_sweep",
    ]
    assert not set(cli.__all__) & set(routegame.__all__)


# A class or function listed in a module's __all__ is defined there, so each
# public name, error types included, has one home.
@pytest.mark.parametrize(
    "module", [model, equilibrium, design, oracle, cli], ids=lambda m: m.__name__
)
def test_public_names_are_defined_where_listed(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            assert obj.__module__ == module.__name__, name


def test_public_records_are_frozen_and_hashable(config):
    s = model.load_scenario(config)
    pi = InformationStructure(0.6, 0.9)
    solution = optimal_design(s)
    records = [
        s, pi, model.validate_scenario(s), posterior_beliefs(s, pi), solve_equilibrium(s, pi),
        solution, solution.thresholds, verify_wardrop(s, pi, (2.0, 4.0)), oracle.GridSpec(),
        cli.SweepRequest(s, "lambda", 0.0, 1.0, 3, frozenset(cli.OUTPUT_GROUPS)),
    ]
    for record in records:
        hash(record)
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    assert {type(r).__name__ for r in records} == {
        "NetworkScenario", "InformationStructure", "ValidationReport", "BeliefSystem",
        "EquilibriumOutcome", "DesignSolution", "Thresholds", "VerificationReport",
        "GridSpec", "SweepRequest",
    }


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_config_with_byte_order_mark_loads(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + DEMO_CONFIG.read_bytes())
        assert model.load_scenario(path) == model.load_scenario(DEMO_CONFIG)
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"alpha1_a = fast\n", "invalid number"),
            (b"alpha1_a = 3.0\xff\n", "not valid UTF-8 at byte 14"),
            # the offset counts the byte-order mark, as a hex dump of the file does
            (codecs.BOM_UTF8 + b"alpha1_a = 3.0\xff\n", "not valid UTF-8 at byte 17"),
        ],
        ids=["bad-number", "not-utf8", "bom-not-utf8"],
    )
    def test_garbled_config_is_parse_error(self, tmp_path, content, message):
        path = tmp_path / "garbled.cfg"
        path.write_bytes(content)
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert "parse error" in result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr


class TestParserReuse:
    """``main`` builds its parser once per process."""

    @pytest.fixture
    def built(self):
        # cache_clear also resets the counts, so misses counts the builds since here
        cli._parser.cache_clear()
        yield lambda: cli._parser.cache_info().misses
        cli._parser.cache_clear()

    def test_main_builds_the_parser_once(self, built, capsys):
        assert cli.main(["validate", str(DEMO_CONFIG)]) == 0
        assert cli.main(["design", str(DEMO_CONFIG)]) == 0
        assert built() == 1

    def test_usage_error_leaves_the_next_call_unchanged(self, built, capsys):
        def sweep(axis="p", start="0"):
            return ["sweep", str(DEMO_CONFIG), "--axis", axis, "--start", start, "--stop", "1",
                    "--count", "5"]

        assert cli.main(sweep()) == 0
        first = capsys.readouterr().out
        for bad in (
            sweep(axis="speed"),
            [*sweep(), "--outputs", "pi_star", "spillover"],
            ["design", str(DEMO_CONFIG), "--format", "xml"],
            ["equilibrium", str(DEMO_CONFIG), "--pi-aa", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: routegame")
        assert cli.main(sweep(start="2")) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert cli.main(sweep()) == 0
        assert capsys.readouterr().out == first
        assert built() == 1

    def test_import_builds_no_parser(self):
        code = "import routegame.cli as c; print(c._parser.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert result.stdout == "0\n"
