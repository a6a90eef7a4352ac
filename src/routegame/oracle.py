"""Formula-free verification engines.

The solvers in :mod:`routegame.equilibrium` and :mod:`routegame.design`
use closed forms.  This module re-derives their answers from first
principles only: damped best-response dynamics that know nothing beyond
the cost functions and the equilibrium conditions, and an exhaustive grid
search over feasible signal distributions.  Agreement between the two
routes is what the test suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .equilibrium import _partition, _slope, posterior_beliefs
from .model import (
    ConvergenceError,
    DomainError,
    InformationStructure,
    NetworkScenario,
    require_valid,
)

ITERATION_CAP = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Resolution and tolerance knobs for the verification engines.

    ``steps_pi`` is the grid resolution per signal-probability axis of
    :func:`grid_search_design`, and ``tol`` the cost-gap convergence
    tolerance of the dynamics.  The restart profiles of
    :func:`best_response_equilibrium` are fixed (``_START_FRACTIONS``).
    """

    steps_pi: int = 201
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.steps_pi < 2:
            raise DomainError(f"steps_pi must be at least 2, got {self.steps_pi!r}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")


# Initial route-2 shares, read-only: rows are decision units, columns
# restarts (three fixed corners, then two profiles from an 11-point grid on
# [0, 1], at the indices np.random.default_rng(0).integers(0, 11, (2, 3))
# draws; written out so that importing the oracle never loads numpy.random).
_START_FRACTIONS = np.vstack(
    [[[0.0] * 3, [1.0] * 3, [0.5] * 3], np.linspace(0.0, 1.0, 11)[[[9, 7, 5], [2, 3, 0]]]]
).T
_START_FRACTIONS.flags.writeable = False


def _populations(s: NetworkScenario) -> np.ndarray:
    """Mass of each decision unit as a ``(3, 1)`` column, rows as in the dynamics."""
    pop1 = s.lambda_ * s.demand
    return np.array([[pop1], [pop1], [(1.0 - s.lambda_) * s.demand]])


def _dynamics_batch(
    s: NetworkScenario, beta: np.ndarray, pr_a: np.ndarray, q: np.ndarray, tol: float
) -> np.ndarray:
    """Run damped best-response dynamics for a batch of belief systems.

    Columns are cells.  Rows are the decision units: the informed
    population under signal n, the informed population under signal a and
    the uninformed population.  ``q`` holds each unit's initial route-2
    mass, ``beta`` the incident beliefs after signal n and after signal a,
    and ``pr_a`` the probability of signal a.  Each iteration every unit
    moves a damped fraction of the mass reassignment that would equalize
    its route costs, clipped to the mass actually on the costlier route; a
    unit's step is halved whenever its cost gap changes sign and grown
    while it keeps its sign, so persistent one-directional drifts (corner
    drains under weak incentives) stay fast.  A cell converges when no used
    route is worse than the best route by ``tol``; it then leaves the
    batch.  Returns the route-2 flows under signal n and signal a as the
    rows of a ``(2, cells)`` array.
    """
    demand, a2, b1, b2 = s.demand, s.alpha2, s.b1, s.b2
    pop = _populations(s)
    used_eps = 1e-12 * demand

    q = np.array(q, dtype=float)
    slope = s.alpha1_a * beta + s.alpha1_n * (1.0 - beta)
    pr_n = 1.0 - pr_a
    d = np.empty_like(q)
    d[:2] = slope + a2
    d[2] = pr_a * d[1] + pr_n * d[0]

    out = np.empty((2, q.shape[1]))
    idx = np.arange(q.shape[1])
    step = np.ones_like(q)
    last = np.zeros_like(q)
    viol = np.zeros(q.shape[1])

    iteration = 0
    while idx.size:
        iteration += 1
        if iteration > ITERATION_CAP:
            raise ConvergenceError(
                f"no convergence within {ITERATION_CAP} iterations for "
                f"{idx.size} cells; residual cost gap {float(viol.max()):.3e}"
            )
        f2 = q[:2] + q[2]
        gap = np.empty_like(q)
        gap[:2] = slope * (demand - f2) + b1 - (a2 * f2 + b2)
        gap[2] = pr_a * gap[1] + pr_n * gap[0]

        on_r1 = (pop - q) > used_eps
        on_r2 = q > used_eps
        viol = np.maximum(np.where(on_r1, gap, 0.0), np.where(on_r2, -gap, 0.0)).max(axis=0)

        done = viol < tol
        if done.any():
            out[:, idx[done]] = f2[:, done]
            keep = ~done
            if not keep.any():
                break
            idx, pr_a, pr_n = idx[keep], pr_a[keep], pr_n[keep]
            q, gap, step, last = q[:, keep], gap[:, keep], step[:, keep], last[:, keep]
            slope, d = slope[:, keep], d[:, keep]

        step = np.minimum(np.where(gap * last < 0.0, 0.5, 1.3) * step, 64.0)
        last = gap

        # Positive gap: route 1 costlier, shift mass toward route 2.
        q += np.minimum(np.maximum(step * gap / d, -q), pop - q)

    return out


def best_response_equilibrium(
    s: NetworkScenario, pi: InformationStructure, spec: GridSpec
) -> tuple[float, float]:
    """Equilibrium flows ``(f2_n, f2_a)`` found by reassignment dynamics alone.

    Runs several initial profiles; the demand-normalized flows they reach
    must agree within ``10 * tol`` or the uniqueness check fails.
    """
    require_valid(s)
    beliefs = posterior_beliefs(s, pi)
    q = _START_FRACTIONS * _populations(s)
    n = q.shape[1]
    beta = np.full((2, n), [[beliefs.beta_n_of_a], [beliefs.beta_a_of_a]])
    f2n, f2a = _dynamics_batch(s, beta, np.full(n, beliefs.pr_a), q, spec.tol)
    spread = max(f2n.max() - f2n.min(), f2a.max() - f2a.min()) / s.demand
    if spread > 10.0 * spec.tol:
        raise ConvergenceError(
            f"restarts disagree by {spread:.3e} demand units (> 10 * tol); "
            "uniqueness check failed"
        )
    return float(f2n[0]), float(f2a[0])


def grid_search_design(
    s: NetworkScenario, spec: GridSpec, trace_path: str | Path | None = None
) -> tuple[InformationStructure, float]:
    """Brute-force the planner's problem on a signal-probability grid.

    Enumerates feasible ``(pi_a_given_a, pi_n_given_n)`` cells including
    the feasibility boundary, solves each cell by dynamics, and returns
    the minimizer (ties broken lexicographically).  Optionally writes a
    per-cell CSV trace.
    """
    require_valid(s)
    vals = np.linspace(0.0, 1.0, spec.steps_pi)
    pa = np.repeat(vals, spec.steps_pi)
    pn = np.tile(vals, spec.steps_pi)
    feasible = pn >= 1.0 - pa - 1e-12
    pa, pn = pa[feasible], pn[feasible]

    p = s.p
    pr_a = p * pa + (1.0 - p) * (1.0 - pn)
    pr_n = 1.0 - pr_a
    beta_a = np.divide(p * pa, pr_a, out=np.full(pa.shape, p), where=pr_a > 0.0)
    beta_n = np.divide(p * (1.0 - pa), pr_n, out=np.full(pa.shape, p), where=pr_n > 0.0)

    q = np.repeat(0.5 * _populations(s), pa.shape[0], axis=1)
    f2n, f2a = _dynamics_batch(s, np.stack([beta_n, beta_a]), pr_a, q, spec.tol)
    losses = pr_a * np.maximum(f2a - s.tau, 0.0) + pr_n * np.maximum(f2n - s.tau, 0.0)

    if trace_path is not None:
        d_n, d_a = _slope(s, beta_n) + s.alpha2, _slope(s, beta_a) + s.alpha2
        g = _partition(s, s.cost_spread, d_n, d_a)
        np.savetxt(
            trace_path,
            np.column_stack([pa, pn, g, f2n, f2a, losses]),
            fmt="%.12g",
            delimiter=",",
            header="pi_a_a,pi_n_n,g_value,f2_n,f2_a,loss",
            comments="",
        )

    # Cells are in lexicographic (pa, pn) order, so the first minimum breaks ties.
    best = int(np.argmin(losses))
    best_pi = InformationStructure(float(pa[best]), float(pn[best]))
    return best_pi, float(losses[best])
