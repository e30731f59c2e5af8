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
  does the field simplex run on the original rows, with exact sign tests on
  real cyclotomic numbers.  States whose decompositions need irrational
  weights (sqrt(2), sqrt(3), ...) take this path, and the basic solution
  then lives in the same real field.

Both run one Bland loop, ``_phase_one``, on a tableau whose rows are
[A | I | b] with rows flipped to b >= 0, followed by the phase-I cost row
(the column sums, zero on the artificial columns, the artificial sum last).
Every entry is D times the textbook tableau entry, for a D > 0 that the
pivot rule keeps, so each sign, each ratio comparison -- cross-multiplied,
r_i * a_l against r_l * a_i, with no division -- and each Bland tie-break is
the textbook tableau's.  The loop stops when no cost entry is positive, and
one readout returns the basic point, or None while the artificial sum is
not zero.  Only the pivot rule differs between the paths:

* rational: one integer tableau, a list of rows of Python ints, which
  cannot overflow (Edmonds' integer-preserving pivot, as in Bareiss
  elimination).  Row i of [A | b] is scaled to integers by the lcm l_i of
  its own denominators; the artificial basis of that integer system is
  diag(l_i), of determinant D = prod(l_i), and the tableau holds D times
  the rational one.  Pivoting on entry pe of row p replaces every other row
  (and the cost row) by (pe * row - row[e] * M[p]) // D, or pe * row // D
  where row[e] is 0, and then sets D = pe.  Throughout, D is the
  determinant of the current basis columns of the scaled integer system,
  and by Cramer's rule every entry is D times the rational entry, an
  integer, so the floor division is exact.  D stays positive (each pivot
  entry is), and the point is read out as Fraction(rhs, D).  Scaling every
  row by one common lcm L and starting from D = L is right only when the
  row lcms are pairwise coprime; otherwise D is not the basis determinant,
  entries stop being integers and the floor division silently returns
  wrong points.
* field: the textbook tableau over real CycNumbers, D = 1.  The pivot row
  is divided by its pivot entry and f times it is subtracted from every row
  whose entry f in the pivot column is not zero.  A fraction-free pivot
  would still divide by D in the field, on entries that grow, so this path
  inverts once per pivot instead.

Prepared rows: a caller that solves many systems over the same rows (the
vertex columns of a decomposition, against one target per state) wraps them
once in ``PreparedRows``.  It records whether every entry is rational and the
rows' common cyclotomic order, and keeps each row set the rational simplex
solves as integer rows, each row scaled by the lcm of its own denominators:
the rows themselves when they are rational, and for each split order the
power-basis coefficient rows of every row, with None for an all-zero one.
Split rows are built on first use at each order, because a right-hand side
of a higher order raises the order of the split.  A solve then scales only
its right-hand side: row i gets l_i = lcm(row lcm, b_i's denominator), the
lcm of the whole row [A | b] as above, so the start tableau, and every
pivot after it, is the one built from the Fraction rows.
``feasible_point`` takes plain rows, wrapped on the fly, or prepared ones;
only the rows are prepared, never a result.

``stats`` counts, for the life of the process, solves by path
(``rational`` input, the ``split`` system, the ``field`` fallback), and
simplex ``pivots`` on both paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence, Union

from .cyclotomic import CycNumber

__all__ = ["PreparedRows", "feasible_point", "stats"]

stats = {"rational": 0, "split": 0, "field": 0, "pivots": 0}


IntegerRow = tuple[list[int], int]


class PreparedRows:
    """Constraint rows prepared once for many right-hand sides.

    `rational` says every entry is rational and `order` is the lcm of the
    orders of the CycNumber entries (1 if none).  `integer` gives the
    integer rows of rational rows, and `split(order)` gives, per row, the
    integer rows of its power-basis coefficients at that order (None for an
    all-zero one); both are built on first use.
    """

    __slots__ = ("rows", "rational", "order", "_integer", "_splits")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = rows
        cyc = [x for row in rows for x in row if isinstance(x, CycNumber)]
        self.rational = all(x.is_rational() for x in cyc)
        self.order = lcm(*(x.order for x in cyc))
        self._integer: list[IntegerRow] | None = None
        self._splits: dict[int, list[list[IntegerRow | None]]] = {}

    @property
    def integer(self) -> list[IntegerRow]:
        """Per row (all rational), its integer row."""
        if self._integer is None:
            self._integer = [_integer_row(row) for row in self.rows]
        return self._integer

    def split(self, order: int) -> list[list[IntegerRow | None]]:
        """Per row, the integer rows of its coefficient rows in the power
        basis of Q(zeta_order), None where one is all zero; order is a
        multiple of `self.order`."""
        out = self._splits.get(order)
        if out is None:
            out = [[_integer_row(r) if any(r) else None
                    for r in zip(*(_coefficients(x, order) for x in row))]
                   for row in self.rows]
            self._splits[order] = out
        return out


Rows = Union[PreparedRows, Sequence[Sequence]]


def _prepared(a_rows: Rows) -> PreparedRows:
    return a_rows if isinstance(a_rows, PreparedRows) else PreparedRows(a_rows)


def _is_rational(a_rows: Rows, b) -> bool:
    return _prepared(a_rows).rational and not any(
        isinstance(x, CycNumber) and not x.is_rational() for x in b)


def feasible_point(a_rows: Rows, b: Sequence):
    """Solve {x >= 0, A x = b} exactly; None if infeasible.

    a_rows are the rows of A, plain or as PreparedRows.  Entries are ints,
    Fractions or real CycNumbers.  Returns Fractions when the rational
    simplex (directly or on the split system) finds the point, real
    CycNumbers when the field simplex does.  The point is the basic feasible
    solution reached by phase-I simplex under Bland's rule (rows flipped to
    b >= 0 first), so identical inputs give identical outputs.
    """
    a = _prepared(a_rows)
    if not a.rows:
        return []
    if _is_rational(a, b):
        stats["rational"] += 1
        return _rational_simplex(a.integer, b)
    split = _split_rows(a, b)
    if split is not None:
        stats["split"] += 1
        x = _rational_simplex(*split)
        if x is not None:
            return x
    stats["field"] += 1
    return _field_simplex(a.rows, b)


def _split_rows(a_rows: Rows, b):
    """The rational system of power-basis coefficients at one common order,
    as (integer rows, right-hand side).

    None when a split row is all zero against a nonzero right-hand side,
    which makes the split system infeasible.
    """
    a = _prepared(a_rows)
    order = lcm(a.order, *(x.order for x in b if isinstance(x, CycNumber)))
    rows, rhs = [], []
    for pieces, bi in zip(a.split(order), b):
        for piece, bk in zip(pieces, _coefficients(bi, order)):
            if piece is not None:
                rows.append(piece)
                rhs.append(bk)
            elif bk:
                return None
    return rows, rhs


def _coefficients(x, order: int) -> list[Fraction]:
    x = CycNumber.from_rational(x, order)
    return [Fraction(c, x.den) for c in x.num]


def _integer_row(row: Sequence) -> IntegerRow:
    """(the entries times l, l) for the lcm l of the rational entries'
    denominators."""
    q = [x.as_fraction() if isinstance(x, CycNumber) else x for x in row]
    den = lcm(*(x.denominator for x in q))
    return [x.numerator * (den // x.denominator) for x in q], den


def _rational_simplex(rows: Sequence[IntegerRow], b):
    tab, cost, det, basis = _integer_phase_one(rows, b)
    return _point(tab, cost, basis, lambda v: Fraction(v, det))


def _integer_tableau(rows: Sequence[IntegerRow], b) -> tuple[list[list[int]], int]:
    """The start tableau (cost row last) of the integer rows against b, and
    its D.

    Row i of [A | b] is scaled by l_i = lcm(the row's l, b_i's denominator),
    so only the right-hand side is scaled afresh, and flipped when b_i < 0;
    D = prod(l_i), and each row is D / l_i times the scaled one, with D on
    its artificial column.
    """
    m = len(rows)
    scaled, dens = [], []
    for (ints, den_row), bi in zip(rows, b):
        bi = bi.as_fraction() if isinstance(bi, CycNumber) else bi
        den = lcm(den_row, bi.denominator)
        k, rhs = den // den_row, bi.numerator * (den // bi.denominator)
        scaled.append((ints, -k, -rhs) if rhs < 0 else (ints, k, rhs))
        dens.append(den)
    det = prod(dens)
    tab = []
    for i, ((ints, k, rhs), den) in enumerate(zip(scaled, dens)):
        f = det // den
        fk = f * k
        tab.append([fk * v for v in ints] + [det if j == i else 0 for j in range(m)] + [f * rhs])
    _append_cost(tab, det, len(rows[0][0]))
    return tab, det


def _integer_phase_one(rows: Sequence[IntegerRow], b):
    """Phase I on the integer tableau of the integer rows against b; the
    final (rows, cost, D, basis).

    Each row is [x columns | artificial columns | rhs]; the cost row ends
    with the artificial sum.  Both are D times their rational counterparts.
    """
    tab, det = _integer_tableau(rows, b)
    det, basis = _phase_one(tab, det, len(rows[0][0]), _integer_pivot)
    return tab[:-1], tab[-1], det, basis


def _field_simplex(a_rows, b):
    """Phase I on the tableau of real CycNumbers, D = 1 throughout."""
    m, n = len(a_rows), len(a_rows[0])
    one, zero = CycNumber.one(), CycNumber.zero()
    tab = []
    for i, (row, bi) in enumerate(zip(a_rows, b)):
        r = [CycNumber.from_rational(x) for x in (*row, bi)]
        if r[-1] < 0:
            r = [-x for x in r]
        tab.append(r[:n] + [one if j == i else zero for j in range(m)] + r[n:])
    _append_cost(tab, 1, n)
    _, basis = _phase_one(tab, 1, n, _field_pivot)
    return _point(tab[:-1], tab[-1], basis, CycNumber.from_rational)


def _append_cost(tab, det, n):
    """Append the phase-I cost row to the rows [A | D I | b]: the column
    sums, less D on the artificial columns, the artificial sum last."""
    cost = [sum(col) for col in zip(*tab)]
    cost[n:-1] = [c - det for c in cost[n:-1]]
    tab.append(cost)


def _phase_one(tab, det, n, pivot):
    """Bland's rule on tab, whose last row is the cost row, from the
    artificial basis, whose columns hold D on the diagonal; the final
    (D, basis), with tab pivoted in place.

    Every entry is D times the textbook tableau entry and D > 0, so signs
    and cross-multiplied ratios are those of the textbook tableau.
    pivot(tab, p, e, D) pivots every row of tab, the cost row included, on
    row p and column e, and returns the new D.  The pivots count in
    stats only when the run returns.
    """
    m = len(tab) - 1
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        cost = tab[-1]
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            stats["pivots"] += pivots
            return det, basis
        leave = None
        for i in range(m):
            row = tab[i]
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
        det = pivot(tab, leave, enter, det)
        basis[leave] = enter
        pivots += 1


def _integer_pivot(tab, p, e, det):
    """Every other row r becomes (pe * r - r[e] * M[p]) // D, exact by the D
    invariant; the new D is pe."""
    prow = tab[p]
    pe = prow[e]
    for i, row in enumerate(tab):
        if i != p:
            f = row[e]
            if f == 0:
                tab[i] = [pe * x // det for x in row]
            else:
                tab[i] = [(pe * x - f * y) // det for x, y in zip(row, prow)]
    return pe


def _field_pivot(tab, p, e, det):
    """Row p is divided by its pivot entry and f times it is subtracted from
    every row with f = r[e] != 0; D stays 1."""
    inv = CycNumber.one() / tab[p][e]
    prow = tab[p] = [x * inv for x in tab[p]]
    for i, row in enumerate(tab):
        f = row[e]
        if i != p and f != 0:
            tab[i] = [x - f * y for x, y in zip(row, prow)]
    return det


def _point(rows, cost, basis, value):
    """The basic feasible point of the final tableau, or None while the
    artificial sum is not zero; value(entry) is the coordinate of an rhs
    entry, value(0) that of a nonbasic column."""
    if cost[-1] != 0:
        return None
    n = len(cost) - 1 - len(rows)
    x = [value(0)] * n
    for row, var in zip(rows, basis):
        if var < n:
            x[var] = value(row[-1])
        elif row[-1] != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x
