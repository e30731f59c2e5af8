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

The rational simplex runs on an integer tableau (Edmonds' integer-preserving
pivot, as in Bareiss elimination).  Rows are flipped to b >= 0, and row i of
[A | b] is scaled to integers by the lcm l_i of its own denominators.  The
artificial basis of that integer system is diag(l_i), of determinant
D = prod(l_i), and the tableau holds D times the textbook rational tableau
[A | I | b]; the phase-I cost row, the artificial sum, is kept the same way.
Pivoting on entry pe of row p replaces every other row (and the cost row)
by (pe * row - row[e] * M[p]) // D and then sets D = pe.  Throughout, D is
the determinant of the current basis columns of the scaled integer system,
and by Cramer's rule every entry is D times the rational entry, an integer,
so the floor division is exact.  D stays positive (each pivot entry is), so
every sign, ratio comparison (cross-multiplied) and Bland tie-break is the
one the rational tableau would make, and the point is read out as
Fraction(rhs, D).  Scaling every row by one common lcm L and starting from
D = L is right only when the row lcms are pairwise coprime; otherwise D is
not the basis determinant, entries stop being integers and the floor
division silently returns wrong points.

The field simplex is the textbook tableau over CycNumbers.

``stats`` counts solves by path (``rational`` input, the ``split`` system,
the ``field`` fallback) and simplex ``pivots`` on both paths, for the life
of the process.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .cyclotomic import CycNumber

__all__ = ["feasible_point", "stats"]

stats = {"rational": 0, "split": 0, "field": 0, "pivots": 0}


def _is_rational(rows, b) -> bool:
    for row in rows:
        for x in row:
            if isinstance(x, CycNumber) and not x.is_rational():
                return False
    return not any(isinstance(x, CycNumber) and not x.is_rational() for x in b)


def feasible_point(a_rows: Sequence[Sequence], b: Sequence):
    """Solve {x >= 0, A x = b} exactly; None if infeasible.

    Entries are ints, Fractions or real CycNumbers.  Returns Fractions when
    the rational simplex (directly or on the split system) finds the point,
    real CycNumbers when the field simplex does.  The point is the basic
    feasible solution reached by phase-I simplex under Bland's rule (rows
    flipped to b >= 0 first), so identical inputs give identical outputs.
    """
    if not a_rows:
        return []
    if _is_rational(a_rows, b):
        stats["rational"] += 1
        return _rational_simplex(a_rows, b)
    split = _split_rows(a_rows, b)
    if split is not None:
        stats["split"] += 1
        x = _rational_simplex(*split)
        if x is not None:
            return x
    stats["field"] += 1
    return _simplex(a_rows, b)


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
    x = CycNumber.from_rational(x, order)
    return [Fraction(c, x.den) for c in x.num]


def _rational_simplex(a_rows, b):
    tab, cost, det, basis = _integer_phase_one(a_rows, b)
    if cost[-1] != 0:
        return None
    n = len(cost) - 1 - len(tab)
    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = Fraction(row[-1], det)
        elif row[-1] != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x


def _integer_phase_one(a_rows, b):
    """Phase I on the integer tableau; the final (rows, cost, D, basis).

    Each row is [x columns | artificial columns | rhs]; the cost row ends
    with the artificial sum.  Both are D times their rational counterparts.
    """
    m, n = len(a_rows), len(a_rows[0])
    scaled, dens = [], []
    for row, bi in zip(a_rows, b):
        q = [x.as_fraction() if isinstance(x, CycNumber) else x for x in (*row, bi)]
        den = lcm(*(x.denominator for x in q))
        r = [x.numerator * (den // x.denominator) for x in q]
        scaled.append([-v for v in r] if r[-1] < 0 else r)
        dens.append(den)
    det = prod(dens)
    tab = []
    for i, (r, den) in enumerate(zip(scaled, dens)):
        f = det // den
        tab.append([f * v for v in r[:n]] + [det if j == i else 0 for j in range(m)] + [f * r[n]])
    cost = [sum(col) for col in zip(*tab)]
    cost[n:n + m] = [0] * m
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            return tab, cost, det, basis
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # row[-1] / a against best[-1] / best[enter], both divisors positive
                best = tab[leave]
                c = row[-1] * best[enter] - best[-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("unbounded phase-I simplex")
        prow = tab[leave]
        pe = prow[enter]
        for i, row in enumerate(tab):
            if i != leave:
                tab[i] = _eliminate(row, prow, enter, pe, det)
        cost = _eliminate(cost, prow, enter, pe, det)
        det = pe
        basis[leave] = enter
        stats["pivots"] += 1


def _eliminate(row, prow, enter, pe, det):
    """(pe * row - row[enter] * prow) // det, exact by the D invariant."""
    f = row[enter]
    if f == 0:
        return [pe * x // det for x in row]
    return [(pe * x - f * y) // det for x, y in zip(row, prow)]


def _simplex(a_rows, b):
    """Phase-I Bland simplex over the ordered field of real CycNumbers."""
    m = len(a_rows)
    n = len(a_rows[0])
    one = CycNumber.one()
    zero = CycNumber.zero()
    tab = []
    rhs = []
    for row, bi in zip(a_rows, b):
        r = [CycNumber.from_rational(x) for x in row]
        v = CycNumber.from_rational(bi)
        if v.sign() < 0:
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
        enter = next((j for j in range(n + m) if cost[j].sign() > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a.sign() > 0:
                ratio = rhs[i] / a
                if best is None:
                    best, leave = ratio, i
                else:
                    c = (ratio - best).sign()
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
                if f.sign() != 0:
                    ti, tl = tab[i], tab[leave]
                    tab[i] = [x - f * y for x, y in zip(ti, tl)]
                    rhs[i] = rhs[i] - f * rhs[leave]
        f = cost[enter]
        if f.sign() != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
            obj = obj - f * rhs[leave]
        basis[leave] = enter
        stats["pivots"] += 1

    if obj.sign() != 0:
        return None
    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
        elif rhs[i].sign() != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x
