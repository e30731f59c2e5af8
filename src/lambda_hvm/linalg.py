"""Dense exact matrices over cyclotomic fields, and exact rank / solve.

Matrices are small (Hilbert-space dimension d^n at desk scale), so a single
Gauss-Jordan routine, `row_reduce`, does every exact elimination in the
package: rank, solve, membership of a value in a subfield
(`CycNumber.demoted`) and the start-up of double description.  Rows whose
entries are all rational run as Fractions, the others as CycNumbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycNumber

__all__ = ["CycMatrix", "dot", "row_reduce", "exact_rank", "exact_solve"]


_ZERO = CycNumber.zero()


def dot(xs: Iterable[CycNumber], ys: Iterable[CycNumber]) -> CycNumber:
    """sum_k xs[k] ys[k] exactly, skipping the products with a zero factor."""
    acc = _ZERO
    for a, b in zip(xs, ys):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


class CycMatrix:
    """Immutable dense matrix with CycNumber entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = tuple(tuple(CycNumber.from_rational(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "CycMatrix":
        z = CycNumber.zero()
        return CycMatrix([[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int, scale=1) -> "CycMatrix":
        s = CycNumber.from_rational(scale)
        z = CycNumber.zero()
        return CycMatrix([[s if i == j else z for j in range(n)] for i in range(n)])

    # -- basic queries ---------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))

    __hash__ = None

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        return CycMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return CycMatrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "CycMatrix":
        return CycMatrix([[-a for a in row] for row in self.data])

    def scale(self, s) -> "CycMatrix":
        s = CycNumber.from_rational(s)
        return CycMatrix([[a * s for a in row] for row in self.data])

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.data))
        return CycMatrix([[dot(row, col) for col in bt] for row in self.data])

    def dagger(self) -> "CycMatrix":
        return CycMatrix([[self.data[i][j].conjugate() for i in range(self.rows)]
                          for j in range(self.cols)])

    def trace(self) -> CycNumber:
        acc = CycNumber.zero()
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.data[i][j]
                    row.extend(a * b for b in other.data[k])
                out.append(row)
        return CycMatrix(out)

    def power(self, k: int) -> "CycMatrix":
        if self.rows != self.cols:
            raise ValueError("square matrices only")
        result = CycMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    # -- numeric view -------------------------------------------------------------

    def to_complex(self) -> np.ndarray:
        return np.array([[x.approx() for x in row] for row in self.data], dtype=complex)

    # -- exact text form ------------------------------------------------------

    def serialize_rows(self) -> list[list[str]]:
        return [[x.serialize() for x in row] for row in self.data]

    @staticmethod
    def from_serialized(rows: Sequence[Sequence[str]]) -> "CycMatrix":
        return CycMatrix([[CycNumber.parse(x) for x in row] for row in rows])

    def __repr__(self):
        return f"CycMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# elimination


def _nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, CycNumber) else x != 0


def _clear_column(rows: list[list], k: int, col: int, targets: Iterable[int]) -> None:
    """Zero column col of the target rows with multiples of row k (pivot 1 at col)."""
    pivot_row = rows[k]
    support = [j for j in range(col, len(pivot_row)) if _nonzero(pivot_row[j])]
    for r in targets:
        row = rows[r]
        f = row[col]
        if _nonzero(f):
            for j in support:
                row[j] = row[j] - f * pivot_row[j]


def row_reduce(rows: list, ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place; returns the pivot columns.

    Pivots are searched in the first ncols columns only, so any columns
    after them (right-hand sides) ride along.  Rows whose entries are all
    rational run as Fractions, the others as CycNumbers; each row of the
    list is replaced.  Forward elimination works below the pivots and stops
    once every row has one, then back-substitution clears above them.  On
    return rows[k] has a 1 in column pivots[k] and 0 in every other pivot
    column, and the rows past len(pivots) are zero in the first ncols.
    """
    for i, row in enumerate(rows):
        if all(x.is_rational() for x in row if isinstance(x, CycNumber)):
            rows[i] = [x.as_fraction() if isinstance(x, CycNumber) else Fraction(x) for x in row]
        else:
            rows[i] = [CycNumber.from_rational(x) for x in row]
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        piv = next((r for r in range(k, nrows) if _nonzero(rows[r][col])), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        x = rows[k][col]
        inv = x.inverse() if isinstance(x, CycNumber) else 1 / x
        rows[k] = [y * inv for y in rows[k]]
        _clear_column(rows, k, col, range(k + 1, nrows))
        pivots.append(col)
    for k in reversed(range(len(pivots))):
        _clear_column(rows, k, pivots[k], range(k))
    return pivots


def exact_rank(matrix) -> int:
    """Rank over the cyclotomic field (or Q), computed exactly."""
    rows = list(matrix.data if isinstance(matrix, CycMatrix) else matrix)
    if not rows or not rows[0]:
        return 0
    return len(row_reduce(rows, len(rows[0])))


def exact_solve(a_rows: Sequence[Sequence], rhs: Sequence):
    """Solve A x = b exactly over the field.

    Returns the unique solution as a list of CycNumber, declared at the
    common order of the entries of A and b, or None when the system is
    inconsistent or underdetermined (no unique solution).
    """
    rows = [list(row) + [b] for row, b in zip(a_rows, rhs)]
    if not rows:
        return None
    ncols = len(rows[0]) - 1
    order = lcm(1, *(x.order for row in rows for x in row if isinstance(x, CycNumber)))
    pivots = row_reduce(rows, ncols)
    if len(pivots) < ncols or any(_nonzero(row[ncols]) for row in rows[ncols:]):
        return None
    return [CycNumber.from_rational(row[ncols], order) for row in rows[:ncols]]
