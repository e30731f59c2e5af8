"""Exact arithmetic: field operations, conjugation, intervals, serialization."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_hvm.cyclotomic import CycNumber, cyclotomic_polynomial, rational, sqrt_int, zeta
from lambda_hvm.linalg import CycMatrix, exact_rank
from tests_support import (reference_conjugate, reference_cyclotomic_polynomial,
                           reference_inverse)


def test_root_of_unity_products():
    assert zeta(4) * zeta(4) == -1
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(6) ** 6 == 1


def test_conjugation_and_realness():
    i = zeta(4)
    assert i.conjugate() == -i and not i.is_real()
    x = zeta(3) + zeta(3, 2)
    assert x.is_real() and x.conjugate() == x
    q = rational(Fraction(5, 3))
    assert q.conjugate() == q and q.is_real()
    assert zeta(7).conjugate().conjugate() == zeta(7)


def test_interval_enclosures():
    iv = zeta(3).interval(64)
    mid = iv.midpoint()
    assert abs(mid.real + 0.5) < 1e-15
    assert abs(mid.imag - 0.8660254037844386) < 1e-12
    assert CycNumber.zero().interval(64).width() == 0.0
    root2 = zeta(8) + zeta(8, 7)
    assert abs(float(root2) - 2 ** 0.5) < 1e-14
    # lower precision encloses higher precision
    assert zeta(5).interval(64).contains(zeta(5).interval(256))
    with pytest.raises(ValueError):
        zeta(3).interval(32)


@st.composite
def cyc_numbers(draw, orders=(1, 3, 4, 8, 12)):
    order = draw(st.sampled_from(orders))
    deg = len(CycNumber.zero(order).num)
    nums = tuple(draw(st.integers(-9, 9)) for _ in range(deg))
    den = draw(st.integers(1, 9))
    return CycNumber(order, nums, den)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(cyc_numbers())
def test_conjugation_involution_and_abs(a):
    assert a.conjugate().conjugate() == a
    m = a.abs_squared()
    assert m.is_real()
    assert m.sign() >= 0


@settings(max_examples=80, deadline=None)
@given(cyc_numbers(orders=(1, 3, 4, 8, 12, 24)))
def test_imag_part_is_the_canonical_quotient(a):
    got = a.imag_part()
    want = (a - a.conjugate()) / (2 * zeta(4))
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


INVERSE_ORDERS = (3, 4, 5, 7, 8, 9, 12, 15, 16, 24)


@settings(max_examples=300, deadline=None)
@given(cyc_numbers(orders=INVERSE_ORDERS))
def test_inverse_equals_the_euclid_inverse(a):
    """1/x by the Galois norm has the same canonical form as the extended
    Euclid inverse, and is an inverse."""
    if a.is_zero():
        return
    got, want = a.inverse(), reference_inverse(a)
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
    assert a * got == 1


def _units(order):
    return [k for k in range(1, order) if gcd(k, order) == 1]


@settings(max_examples=80, deadline=None)
@given(cyc_numbers(orders=INVERSE_ORDERS), cyc_numbers(orders=INVERSE_ORDERS), st.data())
def test_galois_maps_are_ring_maps(a, b, data):
    a, b = a.promoted(lcm(a.order, b.order)), b.promoted(lcm(a.order, b.order))
    k = data.draw(st.sampled_from(_units(a.order)))
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert CycNumber.one(a.order).galois(k) == 1
    conj, want = a.galois(-1), reference_conjugate(a)
    assert (conj.order, conj.num, conj.den) == (want.order, want.num, want.den)
    assert conj == a.conjugate()


def test_galois_needs_a_unit():
    with pytest.raises(ValueError, match="not a unit"):
        zeta(12).galois(3)
    assert zeta(12).galois(5) == zeta(12, 5)


def test_cyclotomic_polynomials_equal_the_fraction_division():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == reference_cyclotomic_polynomial(n), n


def test_sign_decision():
    assert (sqrt_int(2) - 1).sign() == 1
    assert (sqrt_int(2) - 2).sign() == -1
    assert (zeta(3) + zeta(3, 2) + 1).sign() == 0
    assert sqrt_int(3) > 1
    with pytest.raises(ValueError):
        zeta(3).sign()


def test_order_comparisons_agree_with_the_sign_of_the_difference():
    # 0 takes the direct sign path; the others are coerced and subtracted
    values = [sqrt_int(2) - 1, 1 - sqrt_int(2), sqrt_int(3) * Fraction(1, 2), CycNumber.zero(8),
              CycNumber.zero(), rational(Fraction(-2, 3)), zeta(3) + zeta(3, 2) + 2]
    others = [0, 1, -2, Fraction(1, 2), Fraction(-2, 3), CycNumber.zero(12), sqrt_int(3) - 1,
              sqrt_int(2) * Fraction(1, 3), zeta(3) + zeta(3, 2)]
    for a in values:
        for b in others:
            s = (a - b).sign()
            assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0), (a, b)
    with pytest.raises(TypeError):
        sqrt_int(2) < 1.5
    with pytest.raises(ValueError):
        zeta(3) > 0


def test_exact_sqrt():
    for k in (2, 3, 5, 6, 7, 8, 12, 18):
        v = sqrt_int(k)
        assert v * v == k
        assert abs(float(v) - k ** 0.5) < 1e-12


def test_serialization_round_trip():
    values = [
        zeta(12) / 3 + Fraction(1, 2),
        rational(Fraction(-7, 6)),
        CycNumber.zero(9),
        sqrt_int(2),
    ]
    for v in values:
        assert CycNumber.parse(v.serialize()) == v
    with pytest.raises(ValueError):
        CycNumber.parse("8; 1, x")
    with pytest.raises(ValueError):
        CycNumber.parse("nonsense")


def test_cross_order_equality_and_demotion():
    assert zeta(3).promoted(12) == zeta(3)
    assert rational(2) == CycNumber.from_rational(2, 8)
    v = zeta(3).promoted(12)
    back = v.demoted(3)
    assert back is not None and back.order == 3 and back == zeta(3)
    assert zeta(12).demoted(3) is None
    assert sqrt_int(3).demoted(4) is None


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(4).inverse()
    with pytest.raises(ValueError):
        zeta(3).promoted(4)


def test_exact_rank_examples():
    assert exact_rank(CycMatrix.identity(2)) == 2
    assert exact_rank(CycMatrix.zeros(3, 3)) == 0
    w = zeta(3)
    # second row is w^2 times the first since w^3 = 1
    m = CycMatrix([[1, w], [w * w, 1]])
    assert exact_rank(m) == 1


def test_exact_rank_matches_numeric_rank():
    import numpy as np
    import random

    rng = random.Random(3)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        m = CycMatrix(rows)
        numeric = np.linalg.matrix_rank(m.to_complex(), tol=1e-9)
        assert exact_rank(m) == numeric
