"""Edge signal structures against an exact reference.

The fuzz scenarios of ``test_design`` are crossed with every feasible pair
of ``pi(a|a)`` and ``pi(n|n)`` from ``EDGE_PROBS``: the corners, pairs on
or within rounding of the uninformative diagonal, and a rare signal n of
probability down to about 1e-12.  Each is solved in floats and compared
with the grid oracle's ``_cells`` (Bayes' rule with the ``EPS`` slack rule,
then the cell solve) run unchanged on ``Exact`` inputs, in exact rationals.

Bounds, with ``U = 2**-52``: the closed-form flows lie within ``8·U·D`` of
the exact ones, the oracle's signal probabilities within ``8·U`` and its
route-1 slopes within ``8·U·alpha1_a``.  Before the cancellation-free
``pr_n`` these pairs raised ``DomainError`` or missed by up to 2.5e-5·D.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import Exact, exact_scenario
from test_design import fuzz_scenarios

from routegame import EPS, InformationStructure, solve_equilibrium
from routegame.oracle import _cells

EDGE_PROBS = (0.0, 1e-12, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-12, 1.0)
# The 30 feasible pairs of EDGE_PROBS, pi(a|a) major.
EDGE_STRUCTURES = [
    InformationStructure(pa, pn) for pa in EDGE_PROBS for pn in EDGE_PROBS if pn >= 1.0 - pa - EPS
]
U = Fraction(1, 2**52)
C = 8


def test_exact_takes_float_operands_exactly():
    x, one, tenth = Fraction(3, 10), Fraction(1.0), Fraction(0.1)
    assert isinstance(1.0 - x, float)  # what Exact is for
    cases = ((1.0 - Exact(x), one - x), (Exact(x) * 0.1, x * tenth), (0.1 / Exact(x), tenth / x))
    for got, want in cases:
        assert isinstance(got, Exact) and got == want


@pytest.fixture(scope="module")
def exact_cases():
    """``(s, pi, exact)`` for 40 fuzz scenarios per span, each with every edge structure:
    ``exact`` is ``(pr_n, pr_a, m_n, m_a, f2_n, f2_a)`` from ``_cells`` on ``Exact`` inputs."""
    rng, cases = np.random.default_rng(2021), []
    for span_exp in (0, 3, 6, 8):
        for s, pi in product(fuzz_scenarios(rng, span_exp, 40), EDGE_STRUCTURES):
            pa, pn = Exact(pi.pi_a_given_a), Exact(pi.pi_n_given_n)
            ((_, *exact),) = _cells(exact_scenario(s), pa, (pn,))
            # Only a clamp's literal 0.0 may stay a float; any other float is rounded.
            assert all(isinstance(v, Exact) or v == 0.0 for v in exact), f"{s} {pi}: {exact}"
            cases.append((s, pi, exact))
    return cases


def test_closed_form_flows_are_exact_on_edge_structures(exact_cases):
    misses = []
    for s, pi, (*_, f2_n, f2_a) in exact_cases:
        out = solve_equilibrium(s, pi)
        bound = C * U * Fraction(s.demand)
        for name, f, e in zip(("f2_n", "f2_a"), (out.f2_given_n, out.f2_given_a), (f2_n, f2_a)):
            if abs(Fraction(f) - e) > bound:
                misses.append(f"{s} {pi}: {name}={f!r} exact {float(e)!r}")
    assert not misses, f"{len(misses)} misses, e.g.\n" + "\n".join(misses[:5])


def test_oracle_beliefs_are_exact_on_edge_structures(exact_cases):
    misses = []
    for s, pi, exact in exact_cases:
        ((_, *got, _, _),) = _cells(s, pi.pi_a_given_a, (pi.pi_n_given_n,))
        scales = (1, 1, Fraction(s.alpha1_a), Fraction(s.alpha1_a))
        for name, g, e, scale in zip(("pr_n", "pr_a", "m_n", "m_a"), got, exact, scales):
            if abs(Fraction(g) - e) > C * U * scale:
                misses.append(f"{s} {pi}: {name}={g!r} exact {float(e)!r}")
    assert not misses, f"{len(misses)} misses, e.g.\n" + "\n".join(misses[:5])
