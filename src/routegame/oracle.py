"""Formula-free verification engines.

The solvers in :mod:`routegame.equilibrium` and :mod:`routegame.design`
use closed forms.  This module re-derives their answers from first
principles only, using nothing beyond the cost functions and the
equilibrium conditions: damped best-response dynamics from several
restarts for one signal structure, and an exhaustive grid search over
feasible signal distributions that finds each cell's equilibrium by
bisection on the uninformed travellers' route-2 mass.  Agreement between
the two routes is what the test suite leans on.  The dynamics are plain
Python; only the grid search loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .equilibrium import _partition, _slope, posterior_beliefs
from .model import (
    ConvergenceError,
    DomainError,
    InformationStructure,
    NetworkScenario,
    require_valid,
)

__all__ = ["GridSpec", "best_response_equilibrium", "grid_search_design"]

ITERATION_CAP = 1_000_000

# Halvings of the uninformed-mass bracket in grid_search_design.  The
# bracket starts at most ``demand`` wide, and a float significand has 53
# bits, so 64 halvings take it below one ulp of demand.
BISECTION_STEPS = 64


@dataclass(frozen=True)
class GridSpec:
    """Resolution and tolerance knobs for the verification engines.

    ``steps_pi`` is the grid resolution per signal-probability axis of
    :func:`grid_search_design`, and ``tol`` the cost-gap convergence
    tolerance of :func:`best_response_equilibrium` (the grid search
    bisects to float precision and does not read it).  The restart
    profiles of the dynamics are fixed (``_START_FRACTIONS``).
    """

    steps_pi: int = 201
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.steps_pi < 2:
            raise DomainError(f"steps_pi must be at least 2, got {self.steps_pi!r}")
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got {self.tol!r}")


# Initial route-2 shares of the decision units (informed under signal n,
# informed under signal a, uninformed), one triple per restart: three fixed
# corners, then two profiles from np.linspace(0.0, 1.0, 11), at the indices
# np.random.default_rng(0).integers(0, 11, (2, 3)) draws, written out exactly.
_START_FRACTIONS = (
    (0.0, 0.0, 0.0),
    (1.0, 1.0, 1.0),
    (0.5, 0.5, 0.5),
    (0.9, 0.7000000000000001, 0.5),
    (0.2, 0.30000000000000004, 0.0),
)


def best_response_equilibrium(
    s: NetworkScenario, pi: InformationStructure, spec: GridSpec
) -> tuple[float, float]:
    """Equilibrium flows ``(f2_n, f2_a)`` found by reassignment dynamics alone.

    The decision units are the informed population under signal n, the
    informed population under signal a and the uninformed population.
    Each iteration every unit moves a damped fraction of the mass
    reassignment that would equalize its route costs, clipped to the mass
    actually on the costlier route; a unit's step is halved whenever its
    cost gap changes sign and grown while it keeps its sign, so persistent
    one-directional drifts (corner drains under weak incentives) stay
    fast.  A restart converges when no used route is worse than the best
    route by ``tol``.  Every restart in ``_START_FRACTIONS`` must converge
    within ``ITERATION_CAP`` iterations, and the demand-normalized flows
    they reach must agree within ``10 * tol``, or the uniqueness check
    fails.  Returns the first restart's flows.
    """
    require_valid(s)
    beliefs = posterior_beliefs(s, pi)
    demand, a2, b1, b2, tol = s.demand, s.alpha2, s.b1, s.b2, spec.tol
    pop_i, pop_u = s.lambda_ * demand, (1.0 - s.lambda_) * demand
    used_eps = 1e-12 * demand
    slope_n, slope_a = _slope(s, beliefs.beta_n_of_a), _slope(s, beliefs.beta_a_of_a)
    pr_a = beliefs.pr_a
    pr_n = 1.0 - pr_a
    d_n, d_a = slope_n + a2, slope_a + a2
    d_u = pr_a * d_a + pr_n * d_n
    cap = ITERATION_CAP

    flows, stuck = [], []
    for start_n, start_a, start_u in _START_FRACTIONS:
        q_n, q_a, q_u = start_n * pop_i, start_a * pop_i, start_u * pop_u
        step_n = step_a = step_u = 1.0
        last_n = last_a = last_u = 0.0
        iteration = 0
        while True:
            f_n, f_a = q_n + q_u, q_a + q_u
            g_n = slope_n * (demand - f_n) + b1 - (a2 * f_n + b2)
            g_a = slope_a * (demand - f_a) + b1 - (a2 * f_a + b2)
            g_u = pr_a * g_a + pr_n * g_n
            # Converged when no unit has mass on a route costlier than the
            # other by tol; NaN gaps on a used route never converge.
            if (
                (g_n < tol or not pop_i - q_n > used_eps)
                and (-g_n < tol or not q_n > used_eps)
                and (g_a < tol or not pop_i - q_a > used_eps)
                and (-g_a < tol or not q_a > used_eps)
                and (g_u < tol or not pop_u - q_u > used_eps)
                and (-g_u < tol or not q_u > used_eps)
            ):
                flows.append((f_n, f_a))
                break
            iteration += 1
            if iteration == cap:
                stuck.append(
                    max(
                        max(g if pop - q > used_eps else 0.0, -g if q > used_eps else 0.0)
                        for g, q, pop in ((g_n, q_n, pop_i), (g_a, q_a, pop_i), (g_u, q_u, pop_u))
                    )
                )
                break

            # Clipped with if-statements: min() and max() calls made this
            # loop about 3x slower.
            step_n = (0.5 if g_n * last_n < 0.0 else 1.3) * step_n
            step_a = (0.5 if g_a * last_a < 0.0 else 1.3) * step_a
            step_u = (0.5 if g_u * last_u < 0.0 else 1.3) * step_u
            if step_n > 64.0:
                step_n = 64.0
            if step_a > 64.0:
                step_a = 64.0
            if step_u > 64.0:
                step_u = 64.0
            last_n, last_a, last_u = g_n, g_a, g_u

            # Positive gap: route 1 costlier, shift mass toward route 2.
            x = step_n * g_n / d_n
            if x < -q_n:
                x = -q_n
            if x > pop_i - q_n:
                x = pop_i - q_n
            q_n += x
            x = step_a * g_a / d_a
            if x < -q_a:
                x = -q_a
            if x > pop_i - q_a:
                x = pop_i - q_a
            q_a += x
            x = step_u * g_u / d_u
            if x < -q_u:
                x = -q_u
            if x > pop_u - q_u:
                x = pop_u - q_u
            q_u += x

    if stuck:
        raise ConvergenceError(
            f"no convergence within {cap} iterations for {len(stuck)} cells; "
            f"residual cost gap {max(stuck):.3e}"
        )
    f2n, f2a = zip(*flows)
    spread = max(max(f2n) - min(f2n), max(f2a) - min(f2a)) / demand
    if spread > 10.0 * tol:
        raise ConvergenceError(
            f"restarts disagree by {spread:.3e} demand units (> 10 * tol); "
            "uniqueness check failed"
        )
    return flows[0]


def _bisected_flows(s: NetworkScenario, beta, prob):
    """Equilibrium route-2 flows under signal n and signal a, one column per cell.

    ``beta`` and ``prob`` are ``(2, cells)`` arrays holding each cell's
    incident belief after, and probability of, signal n and signal a as
    rows; the result is a ``(2, cells)`` array of the same layout.  At a
    fixed uninformed route-2 mass ``q``, each informed unit's best
    response is the route-2 mass that equalizes its two route costs,
    clipped to its population.  The uninformed cost gap at those responses is
    non-increasing in ``q`` (the Beckmann potential is convex), so
    bisection on ``q`` over ``[0, (1 - lambda_) * D]`` finds the
    equilibrium.
    """
    import numpy as np

    demand, a2, b1, b2 = s.demand, s.alpha2, s.b1, s.b2
    pop_i = s.lambda_ * demand
    slope = _slope(s, beta)
    # Route-2 flow at which an informed unit's two route costs are equal.
    level = (slope * demand + b1 - b2) / (slope + a2)

    lo = np.zeros(prob.shape[1])
    hi = np.full(prob.shape[1], (1.0 - s.lambda_) * demand)
    for _ in range(BISECTION_STEPS):
        q = 0.5 * (lo + hi)
        f2 = np.clip(level - q, 0.0, pop_i) + q
        gap = slope * (demand - f2) + b1 - (a2 * f2 + b2)
        # Positive uninformed gap: route 1 costlier, the equilibrium q is larger.
        up = (prob * gap).sum(axis=0) > 0.0
        lo = np.where(up, q, lo)
        hi = np.where(up, hi, q)
    q = 0.5 * (lo + hi)
    return np.clip(level - q, 0.0, pop_i) + q


def grid_search_design(
    s: NetworkScenario, spec: GridSpec, trace_path: str | Path | None = None
) -> tuple[InformationStructure, float]:
    """Brute-force the planner's problem on a signal-probability grid.

    Enumerates feasible ``(pi_a_given_a, pi_n_given_n)`` cells including
    the feasibility boundary, solves each cell by bisection, and returns
    the minimizer (ties broken lexicographically).  Optionally writes a
    per-cell CSV trace.
    """
    import numpy as np

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

    f2n, f2a = _bisected_flows(s, np.stack([beta_n, beta_a]), np.stack([pr_n, pr_a]))
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
