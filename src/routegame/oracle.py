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

from .equilibrium import _partition, posterior_beliefs
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

    ``steps_pi`` is the grid resolution per signal-probability axis,
    ``steps_flow`` the resolution of the flow grid that restart profiles
    are drawn from, and ``tol`` the cost-gap convergence tolerance.
    """

    steps_pi: int = 201
    steps_flow: int = 11
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps_pi < 2:
            raise DomainError(f"steps_pi must be at least 2, got {self.steps_pi!r}")
        if self.steps_flow < 1:
            raise DomainError(f"steps_flow must be at least 1, got {self.steps_flow!r}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")


def _dynamics_batch(
    s: NetworkScenario,
    beta_a: np.ndarray,
    beta_n: np.ndarray,
    pr_a: np.ndarray,
    q1n: np.ndarray,
    q1a: np.ndarray,
    q2: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Run damped best-response dynamics for a batch of belief systems.

    State per cell: route-2 mass of the informed population under each
    signal and of the uninformed population.  Each iteration every
    decision unit moves a damped fraction of the mass reassignment that
    would equalize its route costs, clipped to the mass actually on the
    costlier route; a unit's step is halved whenever its cost gap changes
    sign and grown while it keeps its sign, so persistent one-directional
    drifts (corner drains under weak incentives) stay fast.  A cell
    converges when no used route is worse than the best route by ``tol``.
    """
    demand, lam = s.demand, s.lambda_
    pop1 = lam * demand
    pop2 = (1.0 - lam) * demand
    a2, b1, b2 = s.alpha2, s.b1, s.b2

    slope_n = s.alpha1_a * beta_n + s.alpha1_n * (1.0 - beta_n)
    slope_a = s.alpha1_a * beta_a + s.alpha1_n * (1.0 - beta_a)
    d_n = slope_n + a2
    d_a = slope_a + a2
    pr_n = 1.0 - pr_a
    d_2 = pr_a * d_a + pr_n * d_n

    q1n = np.array(q1n, dtype=float)
    q1a = np.array(q1a, dtype=float)
    q2 = np.array(q2, dtype=float)

    n_cells = q2.shape[0]
    out_f2n = np.empty(n_cells)
    out_f2a = np.empty(n_cells)
    idx = np.arange(n_cells)
    viol = np.zeros(n_cells)
    step1n = np.ones(n_cells)
    step1a = np.ones(n_cells)
    step2 = np.ones(n_cells)
    last1n = np.zeros(n_cells)
    last1a = np.zeros(n_cells)
    last2 = np.zeros(n_cells)
    used_eps = 1e-12 * demand

    iteration = 0
    while idx.size:
        iteration += 1
        if iteration > ITERATION_CAP:
            raise ConvergenceError(
                f"no convergence within {ITERATION_CAP} iterations for "
                f"{idx.size} cells; residual cost gap {float(viol.max()):.3e}"
            )
        f2n = q1n + q2
        f2a = q1a + q2
        gap_n = slope_n * (demand - f2n) + b1 - (a2 * f2n + b2)
        gap_a = slope_a * (demand - f2a) + b1 - (a2 * f2a + b2)
        gap_2 = pr_a * gap_a + pr_n * gap_n

        viol = np.zeros(idx.size)
        for mass_r2, pop, gap in ((q1n, pop1, gap_n), (q1a, pop1, gap_a), (q2, pop2, gap_2)):
            on_r1 = (pop - mass_r2) > used_eps
            on_r2 = mass_r2 > used_eps
            viol = np.maximum(viol, np.where(on_r1, np.maximum(gap, 0.0), 0.0))
            viol = np.maximum(viol, np.where(on_r2, np.maximum(-gap, 0.0), 0.0))

        done = viol < tol
        if done.any():
            finished = idx[done]
            out_f2n[finished] = f2n[done]
            out_f2a[finished] = f2a[done]
            keep = ~done
            if not keep.any():
                break
            idx = idx[keep]
            q1n, q1a, q2 = q1n[keep], q1a[keep], q2[keep]
            gap_n, gap_a, gap_2 = gap_n[keep], gap_a[keep], gap_2[keep]
            slope_n, slope_a = slope_n[keep], slope_a[keep]
            d_n, d_a, d_2 = d_n[keep], d_a[keep], d_2[keep]
            pr_a, pr_n = pr_a[keep], pr_n[keep]
            step1n, step1a, step2 = step1n[keep], step1a[keep], step2[keep]
            last1n, last1a, last2 = last1n[keep], last1a[keep], last2[keep]

        step1n = np.clip(np.where(gap_n * last1n < 0.0, 0.5, 1.3) * step1n, None, 64.0)
        step1a = np.clip(np.where(gap_a * last1a < 0.0, 0.5, 1.3) * step1a, None, 64.0)
        step2 = np.clip(np.where(gap_2 * last2 < 0.0, 0.5, 1.3) * step2, None, 64.0)
        last1n, last1a, last2 = gap_n, gap_a, gap_2

        # Positive gap: route 1 costlier, shift mass toward route 2.
        q1n += np.clip(step1n * gap_n / d_n, -q1n, pop1 - q1n)
        q1a += np.clip(step1a * gap_a / d_a, -q1a, pop1 - q1a)
        q2 += np.clip(step2 * gap_2 / d_2, -q2, pop2 - q2)

    return out_f2n, out_f2a


def _start_fractions(spec: GridSpec, extra_random: int = 2) -> np.ndarray:
    """Initial route-2 shares per restart: fixed corners plus seeded draws."""
    fixed = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
    if extra_random <= 0:
        return fixed
    rng = np.random.default_rng(spec.seed)
    if spec.steps_flow == 1:
        random_rows = np.full((extra_random, 3), 0.5)
    else:
        grid = np.linspace(0.0, 1.0, spec.steps_flow)
        random_rows = grid[rng.integers(0, spec.steps_flow, size=(extra_random, 3))]
    return np.vstack([fixed, random_rows])


def best_response_equilibrium(
    s: NetworkScenario, pi: InformationStructure, spec: GridSpec
) -> tuple[float, float]:
    """Equilibrium flows ``(f2_n, f2_a)`` found by reassignment dynamics alone.

    Runs several initial profiles; the demand-normalized flows they reach
    must agree within ``10 * tol`` or the uniqueness check fails.
    """
    require_valid(s)
    beliefs = posterior_beliefs(s, pi)
    fracs = _start_fractions(spec)
    n = fracs.shape[0]
    pop1 = s.lambda_ * s.demand
    pop2 = (1.0 - s.lambda_) * s.demand
    f2n, f2a = _dynamics_batch(
        s,
        np.full(n, beliefs.beta_a_of_a),
        np.full(n, beliefs.beta_n_of_a),
        np.full(n, beliefs.pr_a),
        fracs[:, 0] * pop1,
        fracs[:, 1] * pop1,
        fracs[:, 2] * pop2,
        spec.tol,
    )
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

    pop1 = s.lambda_ * s.demand
    pop2 = (1.0 - s.lambda_) * s.demand
    f2n, f2a = _dynamics_batch(
        s,
        beta_a,
        beta_n,
        pr_a,
        np.full(pa.shape, 0.5 * pop1),
        np.full(pa.shape, 0.5 * pop1),
        np.full(pa.shape, 0.5 * pop2),
        spec.tol,
    )
    losses = pr_a * np.maximum(f2a - s.tau, 0.0) + pr_n * np.maximum(f2n - s.tau, 0.0)

    if trace_path is not None:
        g = _partition(s, beta_n, beta_a)
        lines = ["pi_a_a,pi_n_n,g_value,f2_n,f2_a,loss"]
        for i in range(pa.shape[0]):
            lines.append(
                f"{pa[i]:.12g},{pn[i]:.12g},{g[i]:.12g},"
                f"{f2n[i]:.12g},{f2a[i]:.12g},{losses[i]:.12g}"
            )
        Path(trace_path).write_text("\n".join(lines) + "\n")

    ties = np.flatnonzero(losses == losses.min())
    best = ties[np.lexsort((pn[ties], pa[ties]))[0]]
    best_pi = InformationStructure(float(pa[best]), float(pn[best]))
    return best_pi, float(losses[best])
