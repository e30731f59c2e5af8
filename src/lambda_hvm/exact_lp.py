"""Exact feasibility LP: find x >= 0 with A x = b.

Phase-I simplex with Bland's smallest-index rule, which terminates on any
input and makes the returned basic solution deterministic.

The solve is rational first:

* rational input runs the rational simplex directly;
* otherwise the rows and the right-hand side are promoted to one common
  cyclotomic order and each row is split into one rational row per
  power-basis coefficient (all-zero rows are dropped).  The power basis is
  a Q-basis of the field, so a rational solution of the split system solves
  the field system, and the rational simplex returns it;
* only when the split system is infeasible -- a split row reads 0 = c with
  c != 0, which skips the rational simplex, or the simplex finds no point --
  does the ordered-field simplex run on the original rows, with exact sign
  tests on real cyclotomic numbers.  States whose decompositions need
  irrational weights (sqrt(2), sqrt(3), ...) take this path, and the basic
  solution then lives in the same real field.

Rationals are gmpy2 mpq when gmpy2 is installed (an optional extra) and
Fractions otherwise; either way the rational path returns Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .cyclotomic import CycNumber

try:
    from gmpy2 import mpq as Q  # type: ignore
except ImportError:  # pragma: no cover
    Q = Fraction

__all__ = ["feasible_point", "Q"]


def _is_rational(rows, b) -> bool:
    for row in rows:
        for x in row:
            if isinstance(x, CycNumber) and not x.is_rational():
                return False
    return not any(isinstance(x, CycNumber) and not x.is_rational() for x in b)


def _to_q(x):
    if isinstance(x, CycNumber):
        return Q(x.as_fraction())
    return Q(x)


def _to_cyc(x):
    if isinstance(x, CycNumber):
        return x
    return CycNumber.from_rational(Fraction(x))


def feasible_point(a_rows: Sequence[Sequence], b: Sequence):
    """Solve {x >= 0, A x = b} exactly; None if infeasible.

    Returns Fractions when the rational simplex (directly or on the split
    system) finds the point, real CycNumbers when the field simplex does.
    The point is the basic feasible solution reached by phase-I simplex
    under Bland's rule (rows flipped to b >= 0 first), so identical inputs
    give identical outputs.
    """
    if not a_rows:
        return []
    if _is_rational(a_rows, b):
        return _rational_simplex(a_rows, b)
    split = _split_rows(a_rows, b)
    if split is not None:
        x = _rational_simplex(*split)
        if x is not None:
            return x
    return _simplex(a_rows, b, _to_cyc, lambda v: v.sign(), lambda v: v)


def _split_rows(a_rows, b):
    """The rational system of power-basis coefficients at one common order.

    None when a split row is all zero against a nonzero right-hand side,
    which makes the split system infeasible.
    """
    order = lcm(*(x.order for row in (*a_rows, b) for x in row if isinstance(x, CycNumber)))
    rows, rhs = [], []
    for row, bi in zip(a_rows, b):
        cols = [_coefficients(x, order) for x in row]
        for k, bk in enumerate(_coefficients(bi, order)):
            r = [col[k] for col in cols]
            if any(r):
                rows.append(r)
                rhs.append(bk)
            elif bk:
                return None
    return rows, rhs


def _coefficients(x, order: int) -> list[Fraction]:
    x = x.promoted(order) if isinstance(x, CycNumber) else CycNumber.from_rational(x, order)
    return [Fraction(c, x.den) for c in x.num]


def _rational_simplex(a_rows, b):
    return _simplex(a_rows, b, _to_q, lambda v: (v > 0) - (v < 0),
                    lambda v: Fraction(v.numerator, v.denominator))


def _simplex(a_rows, b, conv, sign, out):
    m = len(a_rows)
    n = len(a_rows[0])
    one = conv(1)
    zero = conv(0)
    tab = []
    rhs = []
    for row, bi in zip(a_rows, b):
        r = [conv(x) for x in row]
        v = conv(bi)
        if sign(v) < 0:
            r = [-x for x in r]
            v = -v
        tab.append(r)
        rhs.append(v)
    for i in range(m):
        tab[i].extend(one if i == j else zero for j in range(m))
    basis = [n + i for i in range(m)]

    # phase-I reduced costs for minimizing the artificial sum
    cost = []
    for j in range(n + m):
        s = zero
        for i in range(m):
            s = s + tab[i][j]
        cost.append(s if j < n else s - one)
    obj = zero
    for v in rhs:
        obj = obj + v

    while True:
        enter = next((j for j in range(n + m) if sign(cost[j]) > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if sign(a) > 0:
                ratio = rhs[i] / a
                if best is None:
                    best, leave = ratio, i
                else:
                    c = sign(ratio - best)
                    if c < 0 or (c == 0 and basis[i] < basis[leave]):
                        best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("unbounded phase-I simplex")
        piv = tab[leave][enter]
        inv = one / piv
        tab[leave] = [x * inv for x in tab[leave]]
        rhs[leave] = rhs[leave] * inv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if sign(f) != 0:
                    ti, tl = tab[i], tab[leave]
                    tab[i] = [x - f * y for x, y in zip(ti, tl)]
                    rhs[i] = rhs[i] - f * rhs[leave]
        f = cost[enter]
        if sign(f) != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
            obj = obj - f * rhs[leave]
        basis[leave] = enter

    if sign(obj) != 0:
        return None
    x = [out(zero)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = out(rhs[i])
        elif sign(rhs[i]) != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x
