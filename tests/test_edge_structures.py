"""Edge signal structures against an exact reference.

The fuzz scenarios of ``test_design`` are crossed with every feasible pair
of ``pi(a|a)`` and ``pi(n|n)`` from ``EDGE_PROBS``: the corners, pairs on
or within rounding of the uninformative diagonal, and a rare signal n of
probability down to about 1e-12.  Each is solved in floats and compared
with an all-``Fraction`` reference: Bayes' rule with the ``EPS`` slack rule
evaluated exactly, then the grid oracle's exact cell solve.  The reference
has no float literal, because ``1.0 - Fraction(x)`` is a float and would
turn it into a float computation without a sign.

Bounds, with ``U = 2**-52``: the closed-form flows lie within ``8·U·D`` of
the exact ones, the oracle's signal probabilities within ``8·U`` and its
route-1 slopes within ``8·U·alpha1_a``.  Before the cancellation-free
``pr_n`` these pairs raised ``DomainError`` or missed by up to 2.5e-5·D.
"""

from fractions import Fraction

import numpy as np
from test_design import fuzz_scenarios

from routegame import DomainError, InformationStructure, solve_equilibrium
from routegame.oracle import _beliefs

EDGE_PROBS = (0.0, 1e-12, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-12, 1.0)
U = Fraction(1, 2**52)
C = 8


def edge_cases(per_span: int):
    """``(s, pi)`` for ``per_span`` fuzz scenarios per span, each with every
    feasible edge structure."""
    rng = np.random.default_rng(2021)
    for span_exp in (0, 3, 6, 8):
        for s in fuzz_scenarios(rng, span_exp, per_span):
            for pa in EDGE_PROBS:
                for pn in EDGE_PROBS:
                    try:
                        pi = InformationStructure(pa, pn)
                    except DomainError:
                        continue
                    yield s, pi


def exact_beliefs(s, pi):
    """``(pr_n, pr_a, m_n, m_a)`` as ``_beliefs`` defines them, in ``Fraction``s."""
    p, a1a, a1n = Fraction(s.p), Fraction(s.alpha1_a), Fraction(s.alpha1_n)
    pa, pn = Fraction(pi.pi_a_given_a), Fraction(pi.pi_n_given_n)
    pr_a = p * pa + (1 - p) * (1 - pn)
    pr_n = p * (1 - pa) + (1 - p) * pn
    if pn < 1 - pa:
        # A pair only the EPS slack admits is solved as uninformative.
        b_n = b_a = p
    else:
        b_n = p * (1 - pa) / pr_n if pr_n else p
        b_a = p * pa / pr_a if pr_a else p
    return pr_n, pr_a, a1a * b_n + a1n * (1 - b_n), a1a * b_a + a1n * (1 - b_a)


def exact_flows(s, pi):
    """Equilibrium ``(f2_n, f2_a)`` in ``Fraction``s, by the grid oracle's cell solve."""
    pr_n, pr_a, m_n, m_a = exact_beliefs(s, pi)
    demand, a2, b1, b2 = (Fraction(x) for x in (s.demand, s.alpha2, s.b1, s.b2))
    lam = Fraction(s.lambda_)
    pop_i, pop_u = lam * demand, (1 - lam) * demand
    d_n, d_a = m_n + a2, m_a + a2
    level_n = (m_n * demand + b1 - b2) / d_n
    level_a = (m_a * demand + b1 - b2) / d_a
    (lo, w_lo), (hi, w_hi) = sorted([(level_n, pr_n * d_n), (level_a, pr_a * d_a)])
    q = hi - pop_i
    if q > lo:
        q = (w_lo * lo + w_hi * q) / (w_lo + w_hi)
    q = min(max(q, 0), pop_u)
    return tuple(min(max(level, q), q + pop_i) for level in (level_n, level_a))


def test_closed_form_flows_are_exact_on_edge_structures():
    misses = []
    for s, pi in edge_cases(40):
        out = solve_equilibrium(s, pi)
        bound = C * U * Fraction(s.demand)
        exact = exact_flows(s, pi)
        for name, f, e in zip(("f2_n", "f2_a"), (out.f2_given_n, out.f2_given_a), exact):
            if abs(Fraction(f) - e) > bound:
                misses.append(f"{s} {pi}: {name}={f!r} exact {float(e)!r}")
    assert not misses, f"{len(misses)} misses, e.g.\n" + "\n".join(misses[:5])


def test_oracle_beliefs_are_exact_on_edge_structures():
    misses = []
    for s, pi in edge_cases(40):
        ((_, *got),) = _beliefs(s, pi.pi_a_given_a, (pi.pi_n_given_n,))
        scales = (1, 1, Fraction(s.alpha1_a), Fraction(s.alpha1_a))
        for name, g, e, scale in zip(("pr_n", "pr_a", "m_n", "m_a"), got, exact_beliefs(s, pi), scales):
            if abs(Fraction(g) - e) > C * U * scale:
                misses.append(f"{s} {pi}: {name}={g!r} exact {float(e)!r}")
    assert not misses, f"{len(misses)} misses, e.g.\n" + "\n".join(misses[:5])
