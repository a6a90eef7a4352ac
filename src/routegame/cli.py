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
import functools
import io
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .model import (
    SCENARIO_FIELDS, DomainError, InformationStructure, InvalidScenarioError, NetworkScenario,
    ScenarioParseError, load_scenario, validate_scenario,
)

__all__ = ["AXIS_FIELDS", "OUTPUT_COLUMNS", "OUTPUT_GROUPS", "SweepRequest", "main", "run_sweep"]

AXIS_FIELDS = {"lambda": "lambda_", "tau": "tau", "p": "p"}
# Sweep columns of each output group, in CSV order.
OUTPUT_COLUMNS = {
    "pi_star": ("pi_a_a", "pi_n_n"),
    "flows": ("f2_n", "f2_a", "f1_n", "f1_a"),
    "loss": ("loss", "loss_no_info", "loss_full_info"),
    "costs": ("cost_pop1", "cost_pop2", "cost_avg", "cost_avg_no_info", "cost_avg_full_info"),
}
OUTPUT_GROUPS = tuple(OUTPUT_COLUMNS)


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
        if not hasattr(self.count, "__index__") or self.count < 1:
            raise DomainError(f"count must be a positive integer, got {self.count!r}")
        unknown = self.outputs - set(OUTPUT_GROUPS)
        if unknown:
            raise DomainError(f"unknown outputs: {sorted(unknown)}")

    def axis_values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        width = (self.stop - self.start) / (self.count - 1)
        values = [self.start + i * width for i in range(self.count)]
        if self.axis != "tau" and values[-1] > 1.0 >= self.stop:
            # lambda_ and p may not exceed 1, which start + i * width can
            # overshoot by rounding; other overshoots of stop stay as they are
            return [self.stop if v > 1.0 else v for v in values]
        return values


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


def _round_floats(value: object) -> object:
    """Clamp floats to 12 significant digits so JSON matches the CSV. No JSON
    document holds a float inside a list, so only dicts are descended."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def _json(value: object) -> str:
    import json

    return json.dumps(_round_floats(value), indent=2) + "\n"


def _emit(record: dict[str, object], fmt: str) -> None:
    """Print ``record`` as JSON, or as a CSV header and one row. No field needs
    quoting: keys are identifiers and values ``_fmt`` numbers, words or empty."""
    if fmt == "csv":
        sys.stdout.write(",".join(record) + "\n" + ",".join(map(_fmt, record.values())) + "\n")
    else:
        sys.stdout.write(_json(record))


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_scenario(load_scenario(args.config))
    print(report)
    return 0 if report.ok else 1


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    from .equilibrium import solve_equilibrium

    scenario = load_scenario(args.config)
    pi = InformationStructure(args.pi_aa, args.pi_nn)
    outcome = solve_equilibrium(scenario, pi)
    _emit(outcome.to_record(), args.format)
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from .design import optimal_design

    solution = optimal_design(load_scenario(args.config))
    _emit(solution.to_record(), args.format)
    return 0


def run_sweep(request: SweepRequest) -> tuple[list[str], list[tuple]]:
    """Evaluate every sweep point; per-point failures land in the error column.

    Each row is a tuple aligned with ``columns``. A point's values come from
    the fields that ``optimal_design`` and ``solve_equilibrium`` wrap in
    records; an error row holds the axis value and the message, and None in
    every output column. The baselines' columns are None unless the loss or
    costs group is requested, and the baselines are the structures
    ``(pi_a_a, pi_n_n) = (0, 1)`` (no information) and ``(1, 1)`` (full
    revelation). All solves go through one memo, ``solved``. ``_solve`` never
    reads ``tau``, so a ``tau`` sweep keeps one memo of its outcomes; a point
    on another axis starts its own.
    """
    from .design import _design
    from .equilibrium import _solved, _spillover

    axis, name = request.axis, AXIS_FIELDS[request.axis]
    every = [axis, "regime", *(c for cols in OUTPUT_COLUMNS.values() for c in cols), "error"]
    chosen = (c for g, cols in OUTPUT_COLUMNS.items() if g in request.outputs for c in cols)
    columns = [axis, "regime", *chosen, "error"]
    pick = operator.itemgetter(*map(every.index, columns))
    blank = (None,) * (len(every) - 2)
    baselines = not request.outputs.isdisjoint(("loss", "costs"))
    values, slot = list(request.scenario.to_dict().values()), SCENARIO_FIELDS.index(name)
    rows = []
    solved: dict = {}
    for value in request.axis_values():
        values[slot] = value
        if name != "tau":
            solved = {}
        try:
            s = NetworkScenario(*values)
            regime, pi_aa, out, loss, _ = _design(s, solved)
            no_info = full_info = None
            if baselines:
                no_info = _solved(solved, s, 0.0)
                full_info = _solved(solved, s, 1.0)
            rows.append(pick((
                value, regime, pi_aa, 1.0, out[0], out[1], out[2], out[3], loss,
                no_info and _spillover(s, no_info[0], no_info[1], no_info[6][2]),
                full_info and _spillover(s, full_info[0], full_info[1], full_info[6][2]),
                out[7], out[8], out[9], no_info and no_info[9], full_info and full_info[9], "",
            )))
        except InvalidScenarioError as exc:
            rows.append(pick((value, *blank, "; ".join(exc.report.violations))))
        except (DomainError, ArithmeticError) as exc:
            rows.append(pick((value, *blank, str(exc))))
    return columns, rows


def _write_csv(columns: list[str], rows: list[tuple], out_path: str | None) -> None:
    """Write a header and one line per sweep row to ``out_path``, or to stdout if None.

    An error-free row holds floats, the regime word and an empty error, so one
    positional ``%`` template formats it; ``csv.writer`` writes each error row,
    whose message may need quoting.
    """
    import csv

    template = ",".join("%s" if c in ("regime", "error") else "%.12g" for c in columns) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if row[-1]:
            writer.writerow(map(_fmt, row))
        else:
            buf.write(template % row)
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
    Path(out_path + ".meta.json").write_text(_json(meta))


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    try:
        request = SweepRequest(
            scenario, args.axis, args.start, args.stop, args.count, frozenset(args.outputs)
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
    from .design import optimal_design
    from .oracle import GridSpec, grid_search_design

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
    _emit(record, "json")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: ``parse_args`` never
    changes a parser and returns a new ``Namespace`` each time, so one serves
    every call in a process."""
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
    args = _parser().parse_args(argv)
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
