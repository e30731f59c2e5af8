"""Exact elimination: rank, solve and subfield demotion, checked against
numeric ranks and exact substitution over Q, Q(zeta_3) and Q(zeta_8)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lambda_hvm.cyclotomic import CycNumber, zeta
from lambda_hvm.linalg import CycMatrix, exact_rank, exact_solve

FIELDS = (1, 3, 8)
# (rows, columns, rank bound): tall, wide, square and rank-deficient shapes
SHAPES = ((5, 3, 3), (3, 5, 3), (4, 4, 4), (4, 4, 2), (6, 4, 3), (2, 6, 1))


def random_entry(rng, order, rational=False):
    """Small random element of Q(zeta_order), declared at that order."""
    if rng.random() < 0.3:
        return CycNumber.zero(order)
    x = CycNumber.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), order)
    if order > 1 and not rational:
        x = x + zeta(order, rng.randrange(order)) * rng.randint(-2, 2)
    return x


def dot(row, vec):
    acc = CycNumber.zero()
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def random_rows(rng, order, nrows, ncols, rank):
    """nrows x ncols rows of rank at most `rank`; about half of them rational."""
    base = [[random_entry(rng, order, rational=rng.random() < 0.5) for _ in range(ncols)]
            for _ in range(rank)]
    rows = [list(r) for r in base]
    while len(rows) < nrows:
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([dot(coeffs, col) for col in zip(*base)])
    rng.shuffle(rows)
    return rows


def numeric_rank(rows) -> int:
    return int(np.linalg.matrix_rank(np.array([[x.approx() for x in row] for row in rows]), tol=1e-8))


@pytest.mark.parametrize("order", FIELDS)
def test_exact_rank_matches_numeric_rank_over_fields(order):
    rng = random.Random(order)
    for _ in range(6):
        for nrows, ncols, rank in SHAPES:
            rows = random_rows(rng, order, nrows, ncols, rank)
            expected = numeric_rank(rows)
            assert exact_rank(rows) == expected
            assert exact_rank(CycMatrix(rows)) == expected


@pytest.mark.parametrize("order", FIELDS)
def test_exact_solve_unique_solution_or_none(order):
    rng = random.Random(100 + order)
    seen = set()
    for _ in range(6):
        for nrows, ncols, rank in SHAPES:
            rows = random_rows(rng, order, nrows, ncols, rank)
            if rng.random() < 0.5:
                x0 = [random_entry(rng, order) for _ in range(ncols)]
                b = [dot(row, x0) for row in rows]
            else:
                b = [random_entry(rng, order) for _ in range(nrows)]
            r_a = numeric_rank(rows)
            r_ab = numeric_rank([row + [bi] for row, bi in zip(rows, b)])
            x = exact_solve(rows, b)
            if r_a == r_ab == ncols:
                seen.add("unique")
                assert x is not None and len(x) == ncols
                assert all(isinstance(v, CycNumber) and v.order == order for v in x)
                assert all(dot(row, x) == bi for row, bi in zip(rows, b))
            else:
                seen.add("inconsistent" if r_ab > r_a else "underdetermined")
                assert x is None
    assert seen == {"unique", "inconsistent", "underdetermined"}


@pytest.mark.parametrize("order, big", [(1, 24), (3, 24), (8, 24), (3, 12), (4, 8)])
def test_demoted_inverts_promoted(order, big):
    rng = random.Random(order * big)
    for _ in range(20):
        x = random_entry(rng, order) + random_entry(rng, order) * zeta(order, 1)
        back = x.promoted(big).demoted(order)
        assert back is not None
        assert (back.order, back.num, back.den) == (x.order, x.num, x.den)
    assert zeta(big).demoted(order) is None
