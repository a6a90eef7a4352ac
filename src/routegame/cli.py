"""Batch front-end: validate configs, solve, design, sweep, brute-force.

Exit codes: 0 success, 1 domain error (invalid scenario, infeasible
inputs, or an ``ArithmeticError`` from a solver's internal consistency
check on a valid scenario), 2 usage or parse error.
Data outputs are byte-stable across runs: numbers use 12 significant
digits and carry no timestamps; sweep metadata goes to a JSON sidecar
next to the CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .design import optimal_design
from .equilibrium import _solve, average_spillover, solve_equilibrium
from .model import (
    DomainError,
    InformationStructure,
    InvalidScenarioError,
    NetworkScenario,
    ScenarioParseError,
    load_scenario,
    validate_scenario,
)
from .oracle import GridSpec, grid_search_design

AXIS_FIELDS = {"lambda": "lambda_", "tau": "tau", "p": "p"}
# Sweep columns of each output group, in CSV order.
OUTPUT_COLUMNS = {
    "pi_star": ("pi_a_a", "pi_n_n"),
    "flows": ("f2_n", "f2_a", "f1_n", "f1_a"),
    "loss": ("loss", "loss_no_info", "loss_full_info"),
    "costs": ("cost_pop1", "cost_pop2", "cost_avg", "cost_avg_no_info", "cost_avg_full_info"),
}
OUTPUT_GROUPS = tuple(OUTPUT_COLUMNS)
_NO_INFO = InformationStructure.no_information()
_FULL_INFO = InformationStructure.full_revelation()


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: vary a single scenario axis and record requested outputs."""

    scenario: NetworkScenario
    axis: str
    start: float
    stop: float
    count: int
    outputs: frozenset[str]

    def __post_init__(self) -> None:
        if self.axis not in AXIS_FIELDS:
            raise DomainError(f"unknown sweep axis {self.axis!r}")
        if not math.isfinite(self.stop - self.start):
            raise DomainError(
                f"start {self.start!r}, stop {self.stop!r} and their difference must be finite"
            )
        if self.start > self.stop:
            raise DomainError(f"start {self.start!r} exceeds stop {self.stop!r}")
        if self.count < 1:
            raise DomainError(f"count must be positive, got {self.count!r}")
        unknown = self.outputs - set(OUTPUT_GROUPS)
        if unknown:
            raise DomainError(f"unknown outputs: {sorted(unknown)}")

    def axis_values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        width = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * width for i in range(self.count)]


def _fmt(value: object) -> str:
    if type(value) is float:
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


def _round_floats(value: object) -> object:
    """Clamp floats to 12 significant digits so JSON matches the CSV."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _print_json(record: dict[str, object]) -> None:
    print(json.dumps(_round_floats(record), indent=2))


def _emit(record: dict[str, object], fmt: str) -> None:
    if fmt == "csv":
        _write_csv(list(record), [record], None)
    else:
        _print_json(record)


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_scenario(load_scenario(args.config))
    print(report)
    return 0 if report.ok else 1


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    pi = InformationStructure(args.pi_aa, args.pi_nn)
    outcome = solve_equilibrium(scenario, pi)
    _emit(outcome.to_record(), args.format)
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    solution = optimal_design(load_scenario(args.config))
    _emit(solution.to_record(), args.format)
    return 0


def _sweep_row(request: SweepRequest, s: NetworkScenario, value: float) -> dict[str, object]:
    try:
        solution = optimal_design(s)
    except InvalidScenarioError as exc:
        return {request.axis: value, "error": "; ".join(exc.report.violations)}

    out = solution.outcome
    row = solution.to_record()
    row.update({request.axis: value, "f1_n": out.f1_given_n, "f1_a": out.f1_given_a, "error": ""})
    if not request.outputs.isdisjoint(("loss", "costs")):
        no_info, full_info = _solve(s, _NO_INFO), _solve(s, _FULL_INFO)
        row.update(
            loss_no_info=average_spillover(s, no_info),
            loss_full_info=average_spillover(s, full_info),
            cost_avg_no_info=no_info.cost_avg,
            cost_avg_full_info=full_info.cost_avg,
        )
    return row


def run_sweep(request: SweepRequest) -> tuple[list[str], list[dict[str, object]]]:
    """Evaluate every sweep point; per-point failures land in the error column."""
    chosen = (c for g, cols in OUTPUT_COLUMNS.items() if g in request.outputs for c in cols)
    columns = [request.axis, "regime", *chosen, "error"]
    fields, name = request.scenario.to_dict(), AXIS_FIELDS[request.axis]
    rows = []
    for value in request.axis_values():
        fields[name] = value
        try:
            rows.append(_sweep_row(request, NetworkScenario(**fields), value))
        except (DomainError, ArithmeticError) as exc:
            rows.append({request.axis: value, "error": str(exc)})
    return columns, rows


def _write_csv(
    columns: list[str], rows: list[dict[str, object]], out_path: str | None
) -> None:
    """Write a header and one line per row to ``out_path``, or to stdout if None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    if out_path is None:
        sys.stdout.write(buf.getvalue())
    else:
        Path(out_path).write_text(buf.getvalue())


def _write_sidecar(request: SweepRequest, out_path: str) -> None:
    meta = {
        "tool": f"routegame {__version__}",
        "scenario": request.scenario.to_dict(),
        "sweep": {
            "axis": request.axis,
            "start": request.start,
            "stop": request.stop,
            "count": request.count,
            "outputs": sorted(request.outputs),
        },
    }
    Path(out_path + ".meta.json").write_text(json.dumps(_round_floats(meta), indent=2) + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    try:
        request = SweepRequest(
            scenario=scenario,
            axis=args.axis,
            start=args.start,
            stop=args.stop,
            count=args.count,
            outputs=frozenset(args.outputs),
        )
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    columns, rows = run_sweep(request)
    _write_csv(columns, rows, args.out)
    if args.out is not None:
        _write_sidecar(request, args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    try:
        spec = GridSpec(steps_pi=args.grid)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    best_pi, best_loss = grid_search_design(scenario, spec, trace_path=args.trace)
    solution = optimal_design(scenario)
    record = {
        "pi_a_a": best_pi.pi_a_given_a,
        "pi_n_n": best_pi.pi_n_given_n,
        "loss": best_loss,
        "closed_form_loss": solution.loss,
        "closed_form_gap": best_loss - solution.loss,
    }
    _print_json(record)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routegame",
        description="Solvers for the two-route signaling game: equilibria, "
        "optimal signal policies, sweeps, and brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config file")
    p.add_argument("config")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("equilibrium", help="solve one signal distribution")
    p.add_argument("config")
    p.add_argument("--pi-aa", type=float, required=True, dest="pi_aa")
    p.add_argument("--pi-nn", type=float, required=True, dest="pi_nn")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_equilibrium)

    p = sub.add_parser("design", help="solve the planner's problem in closed form")
    p.add_argument("config")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("sweep", help="sweep one scenario axis and emit CSV")
    p.add_argument("config")
    p.add_argument("--axis", choices=sorted(AXIS_FIELDS), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--outputs", nargs="+", choices=OUTPUT_GROUPS, default=list(OUTPUT_GROUPS))
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("oracle", help="brute-force the design problem on a grid")
    p.add_argument("config")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--trace", default=None, help="optional per-cell CSV trace path")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvalidScenarioError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
