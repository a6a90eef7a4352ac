"""Formula-free verification engines.

The solvers in :mod:`routegame.equilibrium` and :mod:`routegame.design`
use closed forms.  This module re-derives their answers from first
principles only, using nothing beyond Bayes' rule, the cost functions and
the equilibrium conditions: damped best-response dynamics from several
restarts for one signal structure, and an exhaustive grid search over
feasible signal distributions.  Agreement between the two routes is what
the test suite leans on.  Both engines are plain Python and take Bayes'
rule from one routine, ``_cells``, which also solves each structure's
equilibrium exactly for the grid.  They import nothing from the modules
they check, so a defect there cannot move an answer and its check together.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from .model import DomainError, InformationStructure, NetworkScenario, require_valid

__all__ = ["ConvergenceError", "GridSpec", "best_response_equilibrium", "grid_search_design"]

ITERATION_CAP = 1_000_000


class ConvergenceError(RuntimeError):
    """The dynamics ran out of iterations or restarts disagreed."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution and tolerance knobs for the verification engines.

    ``steps_pi`` is the grid resolution per signal-probability axis of
    :func:`grid_search_design`, and ``tol`` the cost-gap convergence
    tolerance of :func:`best_response_equilibrium` (the grid search
    solves each cell exactly and does not read it).  The restart
    profiles of the dynamics are fixed (``_START_FRACTIONS``).
    """

    steps_pi: int = 201
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not hasattr(self.steps_pi, "__index__") or self.steps_pi < 2:
            raise DomainError(f"steps_pi must be an integer of at least 2, got {self.steps_pi!r}")
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


def _cells(s: NetworkScenario, pa: float, pns):
    """Yields ``(pn, pr_n, pr_a, m_n, m_a, f2_n, f2_a)`` for each structure ``(pa, pn)``,
    ``pn`` in ``pns``: its signal probabilities, the route-1 slopes under the posteriors
    they induce and its equilibrium route-2 flows.  A signal of probability zero keeps
    the prior, as do both signals of a pair only the ``EPS`` slack admits, ``pn < 1 - pa``.

    At a fixed uninformed route-2 mass ``q``, an informed unit's best response puts its
    route-2 flow at the level that equalizes its route costs, clamped to
    ``[q, q + lambda_ * D]``.  The uninformed cost gap is then piecewise linear and
    non-increasing in ``q``: each informed term, weighted by its signal's probability, is
    zero on ``[level - lambda_ * D, level]``.  The equilibrium ``q`` is where the gap first
    reaches zero, clamped to ``[0, (1 - lambda_) * D]``: the start of the later flat
    stretch if the two overlap, else the linear root between them.  Only ``+ - * /`` and
    comparisons touch the inputs, so a number type that takes float operands as exact
    rationals runs this unchanged and exactly.
    """
    p, a1a, a1n = s.p, s.alpha1_a, s.alpha1_n
    demand, a2, b1, b2 = s.demand, s.alpha2, s.b1, s.b2
    pop_i, pop_u = s.lambda_ * demand, (1.0 - s.lambda_) * demand
    incident_a, pna = p * pa, 1.0 - pa
    incident_n, nominal = p * pna, 1.0 - p
    for pn in pns:
        pan = 1.0 - pn
        pr_a = incident_a + nominal * pan
        pr_n = 1.0 - pr_a
        if pr_n < 2.0**-20:  # a rare signal n: 1 - pr_a cancels, the joint terms do not
            pr_n = incident_n + nominal * pn
        b_n = incident_n / pr_n if pr_n > 0.0 else p
        b_a = incident_a / pr_a if pr_a > 0.0 else p
        # Exactly pn < 1 - pa: neither rounded test can hold falsely, and one is exact.
        if pn < pna or pan > pa:
            b_n = b_a = p
        m_n, m_a = a1a * b_n + a1n * (1.0 - b_n), a1a * b_a + a1n * (1.0 - b_a)
        d_n, d_a = m_n + a2, m_a + a2
        # Route-2 flow at which an informed unit's two route costs are equal.
        level_n = (m_n * demand + b1 - b2) / d_n
        level_a = (m_a * demand + b1 - b2) / d_a
        # Pairs, not one 4-tuple: CPython unpacks pairs without building a tuple.
        if level_n <= level_a:
            lo, hi = level_n, level_a
            w_lo, w_hi = pr_n * d_n, pr_a * d_a
        else:
            lo, hi = level_a, level_n
            w_lo, w_hi = pr_a * d_a, pr_n * d_n
        q = hi - pop_i
        if q > lo:
            # Disjoint flat stretches: the linear root between them.
            q = (w_lo * lo + w_hi * q) / (w_lo + w_hi)
        if q < 0.0:
            q = 0.0
        elif q > pop_u:
            q = pop_u
        top = q + pop_i
        f2n = q if q > level_n else (top if top < level_n else level_n)
        f2a = q if q > level_a else (top if top < level_a else level_a)
        yield pn, pr_n, pr_a, m_n, m_a, f2n, f2a


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
    they reach must agree within ``10 * tol``.  If they do not, every
    restart resumes from the profile it reached and runs to ``tol / 10``,
    then to ``tol / 100``, with a tenth of the iterations each time; the
    flows must agree within ``10 * tol`` after one of these, or the
    uniqueness check fails.  Returns the first restart's flows.
    """
    require_valid(s)
    ((_, pr_n, pr_a, slope_n, slope_a, _, _),) = _cells(s, pi.pi_a_given_a, (pi.pi_n_given_n,))
    demand, a2, b1, b2, tol = s.demand, s.alpha2, s.b1, s.b2, spec.tol
    pop_i, pop_u = s.lambda_ * demand, (1.0 - s.lambda_) * demand
    used_eps = 1e-12 * demand
    d_n, d_a = slope_n + a2, slope_a + a2
    d_u = pr_a * d_a + pr_n * d_n
    cap = ITERATION_CAP

    # Restart masses: the population fractions on the first pass, then where each stopped.
    profiles, budget = [(n * pop_i, a * pop_i, u * pop_u) for n, a, u in _START_FRACTIONS], cap
    for gap_tol in (tol, tol / 10.0, tol / 100.0):
        flows, reached, stuck = [], [], []
        for q_n, q_a, q_u in profiles:
            step_n = step_a = step_u = 1.0
            last_n = last_a = last_u = 0.0
            iteration = 0
            while True:
                f_n, f_a = q_n + q_u, q_a + q_u
                g_n = slope_n * (demand - f_n) + b1 - (a2 * f_n + b2)
                g_a = slope_a * (demand - f_a) + b1 - (a2 * f_a + b2)
                g_u = pr_a * g_a + pr_n * g_n
                # Converged when no unit has mass on a route costlier than the
                # other by gap_tol; NaN gaps on a used route never converge.
                if (
                    (g_n < gap_tol or not pop_i - q_n > used_eps)
                    and (-g_n < gap_tol or not q_n > used_eps)
                    and (g_a < gap_tol or not pop_i - q_a > used_eps)
                    and (-g_a < gap_tol or not q_a > used_eps)
                    and (g_u < gap_tol or not pop_u - q_u > used_eps)
                    and (-g_u < gap_tol or not q_u > used_eps)
                ):
                    flows.append((f_n, f_a))
                    reached.append((q_n, q_a, q_u))
                    break
                iteration += 1
                if iteration == budget:
                    stuck.append(
                        max(
                            max(g if pop - q > used_eps else 0.0, -g if q > used_eps else 0.0)
                            for g, q, pop in (
                                (g_n, q_n, pop_i), (g_a, q_a, pop_i), (g_u, q_u, pop_u)
                            )
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
            if gap_tol != tol:  # a resume that stalls leaves the disagreement standing
                break
            raise ConvergenceError(
                f"no convergence within {cap} iterations for {len(stuck)} cells; "
                f"residual cost gap {max(stuck):.3e}"
            )
        f2n, f2a = zip(*flows)
        spread = max(max(f2n) - min(f2n), max(f2a) - min(f2a)) / demand
        if spread <= 10.0 * tol:
            return flows[0]
        # Restarts that stop within gap_tol of equilibrium from different sides can
        # disagree by more than the bound where the signal is weak: resume each from
        # where it stopped at a tenth of gap_tol, with a tenth of the iterations,
        # and compare against the same bound.
        profiles, budget = reached, max(cap // 10, 1)
    raise ConvergenceError(
        f"restarts disagree by {spread:.3e} demand units (> 10 * tol); "
        "uniqueness check failed"
    )


def grid_search_design(
    s: NetworkScenario, spec: GridSpec, trace_path: str | Path | None = None
) -> tuple[InformationStructure, float]:
    """Brute-force the planner's problem on a signal-probability grid.

    Enumerates feasible ``(pi_a_given_a, pi_n_given_n)`` cells including
    the feasibility boundary, solves each cell's equilibrium exactly, and
    returns the minimizer (ties broken lexicographically).  Optionally
    writes a per-cell CSV trace.
    """
    require_valid(s)
    steps = spec.steps_pi
    # np.linspace(0.0, 1.0, steps), value for value.
    vals = [i * (1.0 / (steps - 1)) for i in range(steps - 1)] + [1.0]
    demand, a2, tau = s.demand, s.alpha2, s.tau
    rows, trace = [], trace_path is not None
    best_loss, best = math.inf, None
    for pa in vals:
        # Feasible cells: pn >= 1 - pa, with slack for the rounded grid values.
        row = _cells(s, pa, vals[bisect_left(vals, 1.0 - pa - 1e-12):])
        for pn, pr_n, pr_a, m_n, m_a, f2n, f2a in row:
            loss = pr_a * (f2a - tau if f2a > tau else 0.0)
            loss += pr_n * (f2n - tau if f2n > tau else 0.0)
            # Cells run in lexicographic (pa, pn) order, so the first minimum breaks ties.
            if loss < best_loss:
                best_loss, best = loss, (pa, pn)
            if trace:
                g = s.cost_spread / ((m_n + a2) * demand) - s.cost_spread / ((m_a + a2) * demand)
                rows.append(f"{pa:.12g},{pn:.12g},{g:.12g},{f2n:.12g},{f2a:.12g},{loss:.12g}\n")

    if trace:
        Path(trace_path).write_text("pi_a_a,pi_n_n,g_value,f2_n,f2_a,loss\n" + "".join(rows))
    return InformationStructure(*best), best_loss
