"""The four benchmark workloads: seeded inputs, one op, and its check.

Every workload calls only public names of ``routegame``.  An op is what a
user waits for (one CLI command, one dynamics solve, one CLI process); an
item is the unit of work it completes (a sweep point, a feasible grid
cell, a solve, a process).  Checks run outside the timed op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from routegame import cli, design, equilibrium, model, oracle

GOLDEN = model.NetworkScenario(
    alpha1_a=3.0, alpha1_n=1.0, alpha2=2.0, b1=15.0, b2=20.0,
    demand=10.0, p=0.3, lambda_=0.2, tau=2.5,
)
REGIMES = frozenset(r.value for r in design.Regime)
# Low-discrepancy steps (golden ratio in 1-D, plastic number in 2-D): any
# prefix of the op list covers the stratified inputs evenly, so a run's mix
# does not hinge on which ops fit in its window.
GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.324717957244746
PLASTIC_STEPS = (1.0 / PLASTIC, 1.0 / PLASTIC**2)
# Sweep rows are printed to 12 significant digits; this slack, times
# demand, absorbs that rounding in the loss comparison.
LOSS_SLACK = 1e-9
DYNAMICS_FLOW_TOL = 1e-6
# The timed workloads hold only inputs on which no op fails, so that every
# run of every seed completes all of its work.  Demand is scaled from x1 to
# x10**DEMAND_DECADES: from about x1e5 up, the absolute 1e-9 loss
# self-check in optimal_design fails on rounding alone.  The p axis stops
# and the tau axis starts EDGE of the way in from the ends where
# lambda_low == lambda_high (p = 1, lower tau bound).  Dynamics draw
# pi_a_given_a from PI_AA_FLOOR up: below it solves slow down sharply and
# a few end in ConvergenceError.  Oracle scenarios keep tau and p off the
# ends of their ranges, where grid searches ran into the op latency limit.
# known_defects() counts the left-out failures on fixed inputs.
DEMAND_DECADES = 4.0
EDGE = 1e-3
PI_AA_FLOOR = 0.05


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """What the check of one op found."""

    items: int
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    kinds: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.kinds[kind] = self.kinds.get(kind, 0) + count


def failure_kind(kind: str, message: str) -> str:
    """Name a failure, with the known defect its message points at."""
    for needle, defect in (
        ("threshold ordering", "threshold_ordering"),
        ("disagrees with realized spillover", "loss_self_check"),
    ):
        if needle in message:
            return f"{kind}:{defect}"
    return kind


# --- seeded scenario draws ---------------------------------------------------


def scale_exponent(offset: float, index: int) -> float:
    return DEMAND_DECADES * ((offset + index * GOLDEN_STEP) % 1.0)


def _base(rng: random.Random, scale: float) -> model.NetworkScenario:
    """Slopes, free-flow times and demand meeting every invariant, scaled.

    Scaling ``b1``, ``b2``, ``demand`` and ``tau`` together leaves the
    equilibrium shares unchanged.
    """
    a1n = rng.uniform(0.5, 2.0)
    a2 = a1n * rng.uniform(1.2, 2.5)
    a1a = a2 * rng.uniform(1.2, 2.5)
    b1 = rng.uniform(5.0, 20.0)
    b2 = b1 + rng.uniform(1.0, 15.0)
    demand = (b2 - b1) / a1n * rng.uniform(1.5, 4.0)
    return model.NetworkScenario(
        a1a, a1n, a2, b1 * scale, b2 * scale, demand * scale, 0.5, 0.5, 1.0
    )


def full_range_scenario(rng: random.Random, above: bool, scale: float) -> model.NetworkScenario:
    """``tau`` anywhere in its bounds, ``lambda_`` in [0, 1], ``p`` on one side of ``p_bar``."""
    s = _base(rng, scale)
    low, high = model.tau_bounds(s)
    s = replace(s, tau=low + rng.random() * (high - low))
    pb = design.p_bar(s)
    p = pb + (1.0 - pb) * (1.0 - rng.random()) if above else pb * rng.random()
    return replace(s, p=p, lambda_=rng.random())


def interior_scenario(rng: random.Random, scale: float) -> model.NetworkScenario:
    """``tau`` 5% to 85% of the way up its bounds, as in the acceptance battery."""
    s = _base(rng, scale)
    low, high = model.tau_bounds(s)
    return replace(s, tau=low + rng.uniform(0.05, 0.85) * (high - low))


def oracle_scenario(
    rng: random.Random, above: bool, lam_kind: int, scale: float
) -> model.NetworkScenario:
    """``tau`` 5% to 85% up its bounds, ``p`` 5% to 95% of the way across its
    side of ``p_bar``; above ``p_bar``, ``lambda_`` lands in one of the three
    regimes or exactly on a threshold."""
    s = interior_scenario(rng, scale)
    pb = design.p_bar(s)
    p = pb + (1.0 - pb) * rng.uniform(0.05, 0.95) if above else pb * rng.uniform(0.05, 0.95)
    s = replace(s, p=p, lambda_=rng.random())
    if not above:
        return s
    low, high = design.lambda_thresholds(s)
    lam = (
        rng.uniform(0.0, low), low, rng.uniform(low, high), high, rng.uniform(high, 1.0)
    )[lam_kind]
    return replace(s, lambda_=min(max(lam, 0.0), 1.0))


def dynamics_draw(
    rng: random.Random, scale: float, pi_aa: float
) -> tuple[model.NetworkScenario, model.InformationStructure]:
    """A scenario and structure drawn as in acceptance criterion 5."""
    s = interior_scenario(rng, scale)
    s = replace(s, p=rng.uniform(0.01, 0.99), lambda_=rng.random())
    return s, model.InformationStructure(pi_aa, rng.uniform(1.0 - pi_aa, 1.0))


def known_defects(count: int = 100) -> Counter:
    """Failures of ``optimal_design`` on fixed inputs the timed workloads leave out.

    For ``count`` fixed scenarios above ``p_bar`` it solves at ``p = 1`` and
    at the lower ``tau`` bound (where ``lambda_low == lambda_high``), and
    for ``count`` more at demand x1e6 (the absolute loss self-check).
    Returns the number of failures by known defect.
    """
    rng = random.Random("known_defects")
    points = []
    for _ in range(count):
        s = full_range_scenario(rng, above=True, scale=1.0)
        points += [replace(s, p=1.0), replace(s, tau=model.tau_bounds(s)[0])]
        points.append(full_range_scenario(rng, above=True, scale=1e6))
    found = Counter()
    for point in points:
        try:
            design.optimal_design(point)
        except (ArithmeticError, design.RegimeError) as exc:
            found[failure_kind(type(exc).__name__, str(exc))] += 1
    return found


def scenario_text(s: model.NetworkScenario) -> str:
    """A scenario file that parses back to exactly ``s``."""
    return "".join(f"{k} = {v!r}\n" for k, v in s.to_dict().items())


def write_scenario(path: Path, s: model.NetworkScenario) -> str:
    text = scenario_text(s)
    if model.parse_scenario(text) != s or not model.validate_scenario(s).ok:
        raise RuntimeError(f"generated scenario does not round-trip or validate: {s}")
    path.write_text(text)
    return text


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``routegame.cli.main`` in-process and capture what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --- workloads ----------------------------------------------------------------


@dataclass
class Spec:
    """One op's input: ``key`` names it independently of file paths."""

    key: str
    scenario: model.NetworkScenario
    argv: list[str] = field(default_factory=list)
    pi: model.InformationStructure | None = None


class Workload:
    name = ""
    op_span = ""
    items_per_op = 1

    def __init__(self, rng: random.Random, workdir: Path, sizes: dict[str, int]) -> None:
        self.workdir = workdir
        self.sizes = sizes
        self.specs = self.generate(rng)
        self.warmup = self.golden_spec()

    def generate(self, rng: random.Random) -> list[Spec]:
        raise NotImplementedError

    def golden_spec(self) -> Spec:
        raise NotImplementedError

    def run(self, spec: Spec) -> object:
        raise NotImplementedError

    def check(self, spec: Spec, result: object) -> Outcome:
        raise NotImplementedError

    def outcome(self, spec: Spec, result: object, error: Exception | None) -> Outcome:
        """Check one op's result; an op that raised fails all of its items."""
        kind = None
        if error is not None:
            kind = failure_kind(type(error).__name__, str(error))
        else:
            try:
                return self.check(spec, result)
            except Exception as exc:  # a check that cannot finish fails the op's items
                kind = f"check_error:{type(exc).__name__}"
        outcome = Outcome(items=self.items_per_op)
        outcome.fail(kind, self.items_per_op)
        return outcome

    def probe(self, spec: Spec, span: Callable, counts: Counter) -> None:
        """Time, one by one, the public calls the op's result depends on."""

    def _cfg(self, name: str, s: model.NetworkScenario) -> tuple[str, str]:
        path = self.workdir / f"{self.name}-{name}.cfg"
        text = write_scenario(path, s)
        return str(path), text


def _key(text: str, argv: list[str]) -> str:
    return digest((text + "\0" + "\0".join(argv)).encode())[:24]


class Sweep(Workload):
    """``routegame sweep`` over lambda, p or tau with all four output groups."""

    name = "sweep"
    op_span = "cli.main"

    def generate(self, rng):
        count = self.sizes["sweep_count"]
        self.items_per_op = count
        offset = rng.random()
        specs = []
        for i in range(self.sizes["sweep_ops"]):
            scale = 10.0 ** scale_exponent(offset, i)
            s = full_range_scenario(rng, above=(i // 3) % 2 == 0, scale=scale)
            axis = ("lambda", "p", "tau")[i % 3]
            specs.append(self._spec(f"{i:04d}", s, axis))
        return specs

    def golden_spec(self):
        return self._spec("golden", GOLDEN, "lambda")

    def _spec(self, name, s, axis):
        path, text = self._cfg(name, s)
        if axis == "tau":
            low, high = model.tau_bounds(s)
            start, stop = low + EDGE * (high - low), high
        else:
            start, stop = 0.0, 1.0 - EDGE if axis == "p" else 1.0
        args = ["--axis", axis, "--start", repr(start), "--stop", repr(stop),
                "--count", str(self.items_per_op)]
        out = str(self.workdir / "sweep.csv")
        return Spec(_key(text, args), s, ["sweep", path, *args, "--out", out])

    def run(self, spec):
        return call_cli(spec.argv)

    def request(self, spec: Spec) -> cli.SweepRequest:
        axis = spec.argv[spec.argv.index("--axis") + 1]
        return cli.SweepRequest(
            scenario=spec.scenario,
            axis=axis,
            start=float(spec.argv[spec.argv.index("--start") + 1]),
            stop=float(spec.argv[spec.argv.index("--stop") + 1]),
            count=self.items_per_op,
            outputs=frozenset(cli.OUTPUT_GROUPS),
        )

    def check(self, spec, result):
        outcome = Outcome(items=self.items_per_op)
        code, _ = result
        if code != 0:
            outcome.fail(f"exit_{code}", self.items_per_op)
            return outcome
        out = Path(spec.argv[-1])
        data, meta = out.read_bytes(), Path(str(out) + ".meta.json").read_bytes()
        outcome.digests = {spec.key + ":csv": digest(data), spec.key + ":meta": digest(meta)}
        outcome.output_bytes = len(data) + len(meta)
        request = self.request(spec)
        field_name = cli.AXIS_FIELDS[request.axis]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != request.count:
            outcome.wrong.append(f"{spec.key}: {len(rows)} rows, expected {request.count}")
            outcome.fail("row_count", self.items_per_op)
            return outcome
        for value, row in zip(request.axis_values(), rows):
            if row["error"]:
                outcome.fail(failure_kind("error_column", row["error"]))
                continue
            problem = self.row_problem(replace(spec.scenario, **{field_name: value}), row)
            if problem:
                outcome.wrong.append(f"{spec.key} {request.axis}={value!r}: {problem}")
                outcome.fail("check")
        return outcome

    @staticmethod
    def row_problem(point: model.NetworkScenario, row: dict[str, str]) -> str:
        if row["regime"] not in REGIMES:
            return f"unknown regime {row['regime']!r}"
        try:
            pi = model.InformationStructure(float(row["pi_a_a"]), float(row["pi_n_n"]))
        except model.DomainError as exc:
            return f"pi_star not a structure: {exc}"
        flows = (float(row["f2_n"]), float(row["f2_a"]))
        if not equilibrium.verify_wardrop(point, pi, flows).ok:
            return "flows at pi_star fail verify_wardrop"
        loss = float(row["loss"])
        bound = min(float(row["loss_no_info"]), float(row["loss_full_info"]))
        slack = LOSS_SLACK * point.demand
        if not -slack <= loss <= bound + slack:
            return f"loss {loss!r} outside [0, min(no_info, full_info)={bound!r}]"
        return ""

    def probe(self, spec, span, counts):
        with span("model.load_scenario"):
            model.load_scenario(spec.argv[1])
        request = self.request(spec)
        with span("cli.run_sweep"):
            cli.run_sweep(request)
        field_name = cli.AXIS_FIELDS[request.axis]
        no_info = model.InformationStructure.no_information()
        full = model.InformationStructure.full_revelation()
        for value in request.axis_values():
            point = replace(request.scenario, **{field_name: value})
            with span("model.validate_scenario"):
                model.validate_scenario(point)
            try:
                with span("design.optimal_design"):
                    sol = design.optimal_design(point)
            except (ArithmeticError, design.RegimeError) as exc:
                counts[f"design.failed.{type(exc).__name__}"] += 1
                continue
            counts[f"design.regime.{sol.regime.value}"] += 1
            if sol.regime is not design.Regime.NO_PERSUASION:
                with span("design.lambda_thresholds"):
                    design.lambda_thresholds(point)
            with span("equilibrium.posterior_beliefs"):
                equilibrium.posterior_beliefs(point, sol.pi_star)
            for pi in (no_info, full):
                with span("equilibrium.solve_equilibrium"):
                    equilibrium.solve_equilibrium(point, pi)


class OracleGrid(Workload):
    """``routegame oracle`` at the CLI defaults; every other op writes the trace."""

    name = "oracle_grid"
    op_span = "cli.main"

    def generate(self, rng):
        grid = self.sizes["oracle_grid"]
        # Feasible cells: row i of the pi_a_a axis keeps i + 1 pi_n_n values.
        self.items_per_op = grid * (grid + 1) // 2
        offset = rng.random()
        specs = []
        for i in range(self.sizes["oracle_ops"]):
            scale = 10.0 ** scale_exponent(offset, i)
            s = oracle_scenario(rng, above=(i // 2) % 4 != 0, lam_kind=i % 5, scale=scale)
            specs.append(self._spec(f"{i:04d}", s, traced=i % 2 == 1))
        return specs

    def golden_spec(self):
        return self._spec("golden", GOLDEN, traced=True)

    def _spec(self, name, s, traced):
        path, text = self._cfg(name, s)
        args = ["--grid", str(self.sizes["oracle_grid"])]
        spec = Spec(_key(text, args + ["--trace"] * traced), s, ["oracle", path, *args])
        if traced:
            spec.argv += ["--trace", str(self.workdir / "oracle-trace.csv")]
        return spec

    def run(self, spec):
        return call_cli(spec.argv)

    def check(self, spec, result):
        outcome = Outcome(items=self.items_per_op)
        code, stdout = result
        if code != 0:
            outcome.fail(f"exit_{code}", self.items_per_op)
            return outcome
        outcome.digests[spec.key + ":json"] = digest(stdout.encode())
        outcome.output_bytes = len(stdout.encode())
        if "--trace" in spec.argv:
            trace = Path(spec.argv[-1]).read_bytes()
            outcome.digests[spec.key + ":trace"] = digest(trace)
            outcome.output_bytes += len(trace)
            cells = trace.count(b"\n") - 1
            if cells != self.items_per_op:
                outcome.wrong.append(f"{spec.key}: trace has {cells} cells")
                outcome.fail("trace_cells", self.items_per_op)
                return outcome
        record = json.loads(stdout)
        grid = self.sizes["oracle_grid"]
        closed = design.optimal_design(spec.scenario).loss
        floor = closed - 2.0 / (grid - 1) * spec.scenario.demand
        if not record["loss"] >= floor:
            outcome.wrong.append(f"{spec.key}: grid loss {record['loss']!r} below {floor!r}")
            outcome.fail("check", self.items_per_op)
        return outcome

    def probe(self, spec, span, counts):
        gspec = oracle.GridSpec(steps_pi=self.sizes["oracle_grid"], tol=1e-9)
        trace = spec.argv[-1] if "--trace" in spec.argv else None
        try:
            with span("oracle.grid_search_design"):
                oracle.grid_search_design(spec.scenario, gspec, trace_path=trace)
            with span("design.optimal_design"):
                design.optimal_design(spec.scenario)
        except oracle.ConvergenceError:
            counts["oracle.failed.ConvergenceError"] += 1


class Dynamics(Workload):
    """``best_response_equilibrium`` on criterion-5 draws, demand x1 to x1e4."""

    name = "dynamics"
    op_span = "oracle.best_response_equilibrium"

    def generate(self, rng):
        # Demand scale and pi_aa follow one 2-D low-discrepancy sequence:
        # solves slow down as pi_aa nears its floor, so an even spread of
        # pi_aa keeps each run's share of slow solves the same.
        offsets = (rng.random(), rng.random())
        specs = []
        for i in range(self.sizes["dynamics_ops"]):
            u, v = ((o + i * a) % 1.0 for o, a in zip(offsets, PLASTIC_STEPS))
            pi_aa = PI_AA_FLOOR + (1.0 - PI_AA_FLOOR) * v
            s, pi = dynamics_draw(rng, 10.0 ** (DEMAND_DECADES * u), pi_aa)
            specs.append(Spec("", s, pi=pi))
        return specs

    def golden_spec(self):
        return Spec("", GOLDEN, pi=model.InformationStructure(0.6, 0.9))

    def run(self, spec):
        return oracle.best_response_equilibrium(spec.scenario, spec.pi, oracle.GridSpec(tol=1e-9))

    def reference(self, s, pi) -> tuple[float, float]:
        out = equilibrium.solve_equilibrium(s, pi)
        return out.f2_given_n, out.f2_given_a

    def check(self, spec, result):
        outcome = Outcome(items=1)
        s, pi = spec.scenario, spec.pi
        ref = self.reference(s, pi)
        gap = max(abs(a - b) for a, b in zip(result, ref)) / s.demand
        if gap > DYNAMICS_FLOW_TOL:
            problem = f"flow gap {gap:.3e} demand units"
        elif not (equilibrium.verify_wardrop(s, pi, ref).ok
                  and equilibrium.verify_wardrop(s, pi, result).ok):
            problem = "verify_wardrop rejects the flows"
        else:
            return outcome
        # Keyed here rather than at generation, which set-up time would pay.
        outcome.wrong.append(f"{_key(scenario_text(s), [repr(pi)])}: {problem}")
        outcome.fail("check")
        return outcome


class CliStart(Workload):
    """One ``python -m routegame validate|design|equilibrium`` process per op."""

    name = "cli_start"
    op_span = "cli.process"

    def __init__(self, rng, workdir, sizes):
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.expected: dict[str, str | None] = {}
        super().__init__(rng, workdir, sizes)

    def generate(self, rng):
        offset = rng.random()
        specs = []
        for i in range(self.sizes["cli_ops"]):
            scale = 10.0 ** scale_exponent(offset, i)
            s = full_range_scenario(rng, above=(i // 3) % 2 == 0, scale=scale)
            pi_aa = rng.random()
            pi = model.InformationStructure(pi_aa, rng.uniform(1.0 - pi_aa, 1.0))
            specs.append(self._spec(f"{i:04d}", s, ("validate", "design", "equilibrium")[i % 3], pi))
        return specs

    def golden_spec(self):
        return self._spec("golden", GOLDEN, "validate", None)

    def _spec(self, name, s, command, pi):
        path, text = self._cfg(name, s)
        args = [command]
        if command == "equilibrium":
            args += ["--pi-aa", repr(pi.pi_a_given_a), "--pi-nn", repr(pi.pi_n_given_n)]
        return Spec(_key(text, args), s, [args[0], path, *args[1:]], pi)

    def run(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "routegame", *spec.argv],
            env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def expected_stdout(self, spec: Spec) -> str | None:
        """The in-process result of the same command, or None if it raises."""
        if spec.key not in self.expected:
            try:
                code, out = call_cli(spec.argv)
            except Exception:  # the process fails too; its exit code is what counts
                code, out = 1, ""
            self.expected[spec.key] = out if code == 0 else None
        return self.expected[spec.key]

    def check(self, spec, result):
        outcome = Outcome(items=1)
        code, stdout = result
        if code != 0:
            outcome.fail(f"exit_{code}")
        elif stdout != self.expected_stdout(spec):
            outcome.wrong.append(f"{spec.key}: stdout differs from the in-process result")
            outcome.fail("check")
        return outcome

    def probe(self, spec, span, counts):
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import routegame")):
            with span(name):
                subprocess.run([sys.executable, "-c", code], env=self.env, timeout=120, check=True)


WORKLOADS = {w.name: w for w in (Sweep, OracleGrid, Dynamics, CliStart)}
SIZES = {
    "sweep_count": 1001, "sweep_ops": 300,
    "oracle_grid": 101, "oracle_ops": 200,
    "dynamics_ops": 8192,
    "cli_ops": 300,
}
