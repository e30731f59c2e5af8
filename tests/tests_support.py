"""Shared helpers for the test suite."""

from fractions import Fraction

from lambda_hvm.exact_lp import feasible_point
from lambda_hvm.polytope import (additive_assignments, operator_coords,
                                 wigner_operator)


def is_uniform_phase_point_average(img, d, n):
    """Exact witness that img is the uniform average of d distinct phase-point operators.

    The d^(2n) phase-point operators of n qudits are a basis, so the convex
    weights found here are the only ones; the average is rechecked exactly.
    """
    ops = [wigner_operator(d, n, g) for g in additive_assignments(d, n)]
    cols = [operator_coords(w, d) for w in ops]
    target = operator_coords(img, d)
    rows = [[c[pos] for c in cols] for pos in range(len(target))]
    rows.append([Fraction(1)] * len(cols))
    sol = feasible_point(rows, list(target) + [Fraction(1)])
    if sol is None:
        return False
    support = [i for i, w in enumerate(sol)
               if (w != 0 if isinstance(w, Fraction) else not w.is_zero())]
    if len(support) != d or any(sol[i] != Fraction(1, d) for i in support):
        return False
    total = ops[support[0]]
    for i in support[1:]:
        total = total + ops[i]
    return total.scale(Fraction(1, d)) == img
