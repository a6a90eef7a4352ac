"""routegame benchmark: one workload per run, measured end to end or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, oracle_grid, dynamics, cli_start (see bench/WORKLOADS.md).
Inputs come from ``--seed`` alone.  The loop is closed: one caller, and
the next op starts only when the previous one has returned.  Nothing runs
in threads or pools; cli_start runs one subprocess at a time.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it records spans around the public calls into each layer and
prints the per-layer metrics.  Every metric is printed on a ``metric``
line with its unit and sample count, and the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count items; ``correct`` is
false when a returned result fails its check or an output's bytes differ
from an earlier run of the same input.  Failures the program reports
itself (an ``error`` column entry, a typed error, a crash) are counted in
``failed`` only.

Generated files, output digests, span dumps and result records go to
``bench/out`` inside the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep", "oracle_grid", "dynamics", "cli_start")
# setup_s is the median of the run's own set-up and this many more, each
# in a fresh child process so that it pays the routegame import again.
SETUP_CHILDREN = 10
# Each set-up's CPU time is scaled by REFERENCE_NOMINAL_S over the CPU
# time of a reference process run right after it.  The reference imports
# what a set-up imports apart from routegame, and never touches routegame.
REFERENCE = "import numpy, json, csv, argparse, dataclasses"
REFERENCE_NOMINAL_S = 0.14
# Share of --seconds per phase of a traced run: untraced, traced, and a
# traced slice of each other workload, so every per-layer metric is
# measured on the workload it belongs to.
TRACE_SHARES = (0.2, 0.5, 0.1)
# An op (or a traced op's probe) still running after this long is stopped
# and fails its items, so that a run ends in time even if an input runs the
# dynamics to their 1,000,000-iteration cap (about 100 s).  The slowest op
# the workloads' inputs were seen to take is a 24-s grid search.
OP_TIMEOUT_S = 60.0
# The machines this runs on are shared: the same op can take twice as long
# for seconds at a time while other tenants are busy.  So a fixed kernel
# that does not touch routegame is timed at least every CALIBRATE_EVERY_S,
# and each op's latency is scaled by KERNEL_NOMINAL_S over the kernel time
# interpolated to the middle of the op.  The timing metrics are thus
# reported at one nominal host speed, at which the kernel takes
# KERNEL_NOMINAL_S; wall-clock figures are printed beside them.
KERNEL_NOMINAL_S = 0.65e-3
CALIBRATE_EVERY_S = 0.1
# Digest kinds whose bytes must not change from one version of routegame
# to the next (the README's byte-stable sweep CSV).  Every other digest is
# compared only between runs of the same routegame sources.
STABLE_ACROSS_VERSIONS = ("csv",)


def load_workloads():
    """Import the workload module, and with it routegame from this checkout's ``src``."""
    if not (SRC / "routegame" / "__init__.py").is_file():
        raise SystemExit(f"error: routegame sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import routegame
    import workloads

    if Path(routegame.__file__).resolve().parent != SRC / "routegame":
        raise SystemExit(f"error: routegame imported from {routegame.__file__}, not {SRC}")
    return workloads


def kernel_s() -> float:
    """Time of a fixed interpreter loop, the best of two runs.

    It has no numpy calls: when the neighbours were busy, small numpy calls
    slowed down 1.8x where this loop slowed down 1.4x, and sweep and CLI
    ops followed the loop, so scaling by the numpy calls made their times
    noisier, not steadier.
    """
    best = math.inf
    for _ in range(2):
        start, x = time.perf_counter(), 0.0
        for i in range(10_000):
            x += i * 0.5
        best = min(best, time.perf_counter() - start)
    return best


def cpu_s(who: int) -> float:
    """CPU seconds of this process or of the child processes it has waited for."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def set_up(name: str, seed: int, workdir: Path, sizes: dict | None = None):
    """Import routegame, generate inputs, write scenario files, run one warm-up op.

    Returns the workload and the set-up's CPU time (this process and its
    waited-for children) and wall-clock time.  CPU time leaves out the
    waits for the file system and for other processes on the CPU.
    """
    t0, c0 = time.perf_counter(), cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN)
    wl = load_workloads()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir, sizes or wl.SIZES)
    workload.run(workload.warmup)
    cpu = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN) - c0
    return workload, cpu, time.perf_counter() - t0


def nominal_setup_s(cpu: float) -> float:
    """Scale a set-up's CPU time to nominal host speed by a reference process."""
    c0 = cpu_s(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", REFERENCE], timeout=60, check=True)
    return cpu * REFERENCE_NOMINAL_S / (cpu_s(resource.RUSAGE_CHILDREN) - c0)


@dataclass
class Tally:
    """Latencies, item counts, failures and output digests of a set of ops.

    Per-op figures live in flat arrays, so the benchmark's own memory
    barely grows with the number of ops and ``peak_rss_mb`` stays the
    program's.  Only the sweep and oracle ops, a few hundred a run, have
    digests.
    """

    wall_latencies: array = field(default_factory=lambda: array("d"))
    middles: array = field(default_factory=lambda: array("d"))
    # Latencies at nominal host speed, filled in by scale().
    latencies: array = field(default_factory=lambda: array("d"))
    passed: array = field(default_factory=lambda: array("q"))
    items: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    digests: dict[str, str] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    output_bytes: int = 0

    def add(self, start: float, latency: float, outcome) -> None:
        self.wall_latencies.append(latency)
        self.middles.append(start + latency / 2)
        self.passed.append(outcome.items - outcome.failed)
        self.items += outcome.items
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.kinds.update(outcome.kinds)
        self.output_bytes += outcome.output_bytes
        self.compare(outcome.digests)

    def scale(self, calibration: list[tuple[float, float]]) -> None:
        """Scale new latencies to nominal host speed by the interpolated kernel time."""
        times = [t for t, _ in calibration]
        for i in range(len(self.latencies), len(self.wall_latencies)):
            middle = self.middles[i]
            j = min(max(bisect.bisect(times, middle), 1), len(times) - 1)
            (t0, k0), (t1, k1) = calibration[j - 1], calibration[j]
            kernel = k0 + (k1 - k0) * (middle - t0) / (t1 - t0)
            self.latencies.append(self.wall_latencies[i] * KERNEL_NOMINAL_S / kernel)

    def compare(self, digests: dict[str, str]) -> None:
        for key, value in digests.items():
            if self.digests.setdefault(key, value) != value:
                self.mismatches.append(key)

    @property
    def items_per_s(self) -> float:
        return sum(self.passed) / sum(self.latencies)


class OpTimeout(Exception):
    """An op ran past its latency limit and was stopped."""


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded the {OP_TIMEOUT_S:g} s latency limit")


@contextmanager
def latency_limit():
    """Stop the enclosed call with :class:`OpTimeout` after ``OP_TIMEOUT_S``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(workload, spec, tracer=None, op_id=0):
    start = time.perf_counter()
    try:
        with latency_limit():
            if tracer is None:
                result = workload.run(spec)
            else:
                with tracer.span("op", op_id), tracer.span(workload.op_span, op_id):
                    result = workload.run(spec)
    except Exception as exc:  # recorded as the op's failure
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def measure(workload, seconds: float, tally: Tally, tracer=None, counts=None) -> None:
    """Run ops back to back until ``seconds`` have passed (at least one op)."""
    deadline = time.perf_counter() + seconds
    calibration = []  # (time, kernel seconds)
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if not calibration or time.perf_counter() - calibration[-1][0] >= CALIBRATE_EVERY_S:
            calibration.append((time.perf_counter(), kernel_s()))
        spec = workload.specs[i % len(workload.specs)]
        op_id = len(tracer.spans) if tracer is not None else i
        start = time.perf_counter()
        latency, result, error = run_op(workload, spec, tracer, op_id)
        if tracer is not None:
            try:
                with latency_limit(), tracer.span("probe", op_id):
                    workload.probe(spec, lambda name: tracer.span(name, op_id), counts)
            except Exception as exc:  # a probe failure must not hide the op's own result
                counts[f"probe.failed.{type(exc).__name__}"] += 1
        if tracer is not None and type(error).__name__ == "ConvergenceError":
            counts["oracle.failed.ConvergenceError"] += 1
        tally.add(start, latency, workload.outcome(spec, result, error))
        i += 1
    calibration.append((time.perf_counter(), kernel_s()))
    tally.scale(calibration)


def source_digest() -> str:
    """sha256 of the routegame sources, naming the version that was measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "routegame").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def compare_stored_digests(name: str, tally: Tally, version: str) -> None:
    """Digests of earlier runs in this checkout must match for the same inputs.

    A sweep CSV must match whatever version produced it; every other output
    only a run of the same ``version`` of the sources.
    """
    path = OUT / f"digests-{name}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    digests = {
        key if key.rsplit(":", 1)[1] in STABLE_ACROSS_VERSIONS else f"{version}:{key}": value
        for key, value in tally.digests.items()
    }
    tally.mismatches += [k for k, v in digests.items() if stored.get(k, v) != v]
    stored.update(digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True, indent=0))
    tmp.replace(path)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def fingerprint(name: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "sources": source_digest(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_setups(name: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(nominal, wall-clock) seconds of ``count`` set-ups in fresh processes."""
    times = []
    for k in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed), "--workdir", f"setup{k}"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        child = json.loads(proc.stdout.splitlines()[-1])
        times.append((nominal_setup_s(child["cpu_s"]), child["wall_s"]))
    return times


def end_to_end(name: str, seed: int, seconds: float, sizes: dict | None = None):
    workdir = OUT / f"work-{name}"
    workload, cpu, wall = set_up(name, seed, workdir, sizes)
    setup = (nominal_setup_s(cpu), wall)
    tally = Tally()
    measure(workload, seconds, tally)
    if name == "cli_start":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    compare_stored_digests(name, tally, source_digest())
    # Child set-ups generate full-size inputs, so a resized run times only its own.
    setups = [setup] + (child_setups(name, seed, SETUP_CHILDREN) if sizes is None else [])
    shutil.rmtree(workdir, ignore_errors=True)

    n, lat, wall = len(tally.latencies), tally.latencies, tally.wall_latencies
    p90_rank = max(math.ceil(0.9 * n), 1)
    passed = tally.items - tally.failed
    metrics = [
        ("setup_s", statistics.median(s for s, _ in setups), "s",
         f"n={len(setups)} set-ups, CPU time scaled by a reference process; wall-clock "
         f"{statistics.median(w for _, w in setups):.6g} s"),
        ("items_per_s", tally.items_per_s, "items/s",
         f"n={n} ops; {passed} of {tally.items} items passed, failed_frac = "
         f"{tally.failed}/{tally.items} = {tally.failed / tally.items:.6g}; "
         f"wall-clock {passed / sum(wall):.6g} items/s"),
        ("op_p50_ms", statistics.median(lat) * 1e3, "ms",
         f"n={n} ops; wall-clock {statistics.median(wall) * 1e3:.6g} ms"),
        ("op_p90_ms", nearest_rank(lat, 0.9) * 1e3, "ms",
         f"n={n} ops, {n - p90_rank} above p90; wall-clock {nearest_rank(wall, 0.9) * 1e3:.6g} ms, "
         f"p99 {nearest_rank(wall, 0.99) * 1e3:.6g} ms, max {max(wall) * 1e3:.6g} ms"),
        ("peak_rss_mb", rss_kb / 1024.0, "MB",
         "n=1 " + ("largest CLI process" if name == "cli_start" else "process")),
    ]
    return tally, metrics


def per_layer(name: str, seed: int, seconds: float, sizes: dict | None = None):
    from tracing import Tracer

    workloads = {}
    for other in (name, *[w for w in WORKLOAD_NAMES if w != name]):
        workloads[other], *_ = set_up(other, seed, OUT / f"work-{other}", sizes)
    untraced, tallies, tracers, counts = Tally(), {}, {}, Counter()
    untraced_share, traced_share, slice_share = TRACE_SHARES
    measure(workloads[name], untraced_share * seconds, untraced)
    for other, workload in workloads.items():
        tallies[other], tracers[other] = Tally(), Tracer()
        share = traced_share if other == name else slice_share
        measure(workload, share * seconds, tallies[other], tracers[other], counts)
    for other, workload in workloads.items():
        tracers[other].write(OUT / f"spans-{name}-{other}.csv")
        shutil.rmtree(OUT / f"work-{other}", ignore_errors=True)

    spans = {w: t.durations() for w, t in tracers.items()}

    def durations(workload: str, span: str) -> list[float]:
        return spans[workload].get(span, [])

    def p50_us(workload, span):
        d = durations(workload, span)
        return statistics.median(d) * 1e6 if d else 0.0

    def quantile_ms(workload, span, q):
        d = durations(workload, span)
        return nearest_rank(d, q) * 1e3 if d else 0.0

    def busy(workload, span):
        return sum(durations(workload, span))

    def n(workload, span):
        return f"n={len(durations(workload, span))} spans on {workload}"

    grid_ops = len(durations("oracle_grid", "oracle.grid_search_design"))
    metrics = []
    for span in ("model.validate_scenario", "model.load_scenario",
                 "equilibrium.posterior_beliefs", "equilibrium.solve_equilibrium",
                 "design.optimal_design", "design.lambda_thresholds"):
        metrics.append((f"{span}.p50_us", p50_us("sweep", span), "us", n("sweep", span)))
    for key in ("design.regime.no_persuasion", "design.regime.full_disclosure",
                "design.regime.partial_disclosure", "design.regime.saturated_disclosure",
                "design.failed.ArithmeticError", "design.failed.RegimeError",
                "oracle.failed.ConvergenceError"):
        metrics.append((key, counts[key], "count", "n=1 traced run"))
    g, b = "oracle.grid_search_design", "oracle.best_response_equilibrium"
    metrics += [
        (f"{g}.busy_s", busy("oracle_grid", g), "s", n("oracle_grid", g)),
        (f"{g}.cells", grid_ops * workloads["oracle_grid"].items_per_op, "count",
         n("oracle_grid", g)),
        (f"{g}.p90_ms", quantile_ms("oracle_grid", g, 0.9), "ms", n("oracle_grid", g)),
        (f"{b}.busy_s", busy("dynamics", b), "s", n("dynamics", b)),
        (f"{b}.p50_us", p50_us("dynamics", b), "us", n("dynamics", b)),
        (f"{b}.p90_ms", quantile_ms("dynamics", b, 0.9), "ms", n("dynamics", b)),
        (f"{b}.p99_ms", quantile_ms("dynamics", b, 0.99), "ms", n("dynamics", b)),
        ("cli.run_sweep.busy_s", busy("sweep", "cli.run_sweep"), "s", n("sweep", "cli.run_sweep")),
        ("cli.sweep_self_s", busy("sweep", "cli.main") - busy("sweep", "cli.run_sweep"), "s",
         n("sweep", "cli.main") + " minus cli.run_sweep"),
        ("cli.oracle_self_s",
         busy("oracle_grid", "cli.main") - busy("oracle_grid", g)
         - busy("oracle_grid", "design.optimal_design"), "s",
         n("oracle_grid", "cli.main") + f" minus {g} and design.optimal_design"),
        ("cli.output_bytes", tallies["sweep"].output_bytes / len(tallies["sweep"].latencies),
         "count", f"CSV and sidecar bytes per op, n={len(tallies['sweep'].latencies)} sweep ops"),
        ("cli.interpreter_ms", p50_us("cli_start", "cli.interpreter") / 1e3, "ms",
         n("cli_start", "cli.interpreter")),
        ("cli.import_ms",
         (p50_us("cli_start", "cli.import") - p50_us("cli_start", "cli.interpreter")) / 1e3,
         "ms", n("cli_start", "cli.import") + " minus cli.interpreter"),
    ]
    from workloads import known_defects  # importable once set_up has run

    defects = known_defects()
    for defect, inputs in (("threshold_ordering", "200 at p = 1 or the lower tau bound"),
                           ("loss_self_check", "100 at demand x1e6")):
        found = sum(v for k, v in defects.items() if k.endswith(":" + defect))
        metrics.append((f"design.known_defect.{defect}", found, "count",
                        f"n=300 fixed edge inputs, {inputs}"))
    # Both phases start at the same op, so their common prefix is the same work.
    traced = tallies[name]
    common = min(len(untraced.latencies), len(traced.latencies))
    rates = [sum(t.passed[:common]) / sum(t.latencies[:common]) for t in (untraced, traced)]
    basis = f"n={common} ops, the first of each phase"
    metrics += [
        ("trace.overhead_frac", 1.0 - rates[1] / rates[0], "ratio", basis),
        ("trace.untraced_items_per_s", rates[0], "items/s", basis),
        ("trace.traced_items_per_s", rates[1], "items/s", basis),
    ]
    total = Tally()
    for t in (untraced, *tallies.values()):
        total.items += t.items
        total.failed += t.failed
        total.wrong += t.wrong
        total.kinds.update(t.kinds)
        total.mismatches += t.mismatches
    total.kinds.update({k: v for k, v in counts.items() if k.startswith("probe.")})
    return total, metrics


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU for the benchmark and the processes it starts, so that the
    # calibration kernel always runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workdir = OUT / f"work-{args.workload}-{args.workdir}"
        _, cpu, wall = set_up(args.workload, args.seed, workdir, sizes)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"cpu_s": cpu, "wall_s": wall}))
        return 0

    if args.trace:
        tally, metrics = per_layer(args.workload, args.seed, args.seconds, sizes)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds, sizes)
    fp = fingerprint(args.workload, args.seed)
    correct = not tally.wrong and not tally.mismatches
    print("fingerprint " + json.dumps(fp))
    for metric, value, unit, note in metrics:
        print(f"metric {metric} = {value:.6g} {unit} ({note})")
    print("failures " + json.dumps(dict(sorted(tally.kinds.items()))))
    for line in (tally.wrong[:10] + [f"digest mismatch: {k}" for k in tally.mismatches[:10]]):
        print("problem " + line)
    result = {
        "correct": correct,
        "attempted": tally.items,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, v, u, _ in metrics},
    }
    record = dict(result, fingerprint=fp, failures=dict(tally.kinds),
                  notes={m: note for m, _, _, note in metrics},
                  op_latencies_s=list(tally.latencies),
                  op_wall_latencies_s=list(tally.wall_latencies), op_passed=list(tally.passed))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
