"""Exact arithmetic: field operations, conjugation, intervals, fixed-point
signs and floats, serialization."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_hvm import cyclotomic
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


def _floor_cos(turns: Fraction, bits: int) -> tuple[int, bool]:
    """floor(cos(2 pi turns) * 2**bits) and whether the cosine is rational,
    from closed forms in Q(sqrt 2, sqrt 3, sqrt 5) and integer square roots:
    floor(sqrt(y)) = isqrt(floor(y)) for real y >= 0, and floor(-y) =
    -floor(y) - 1 for irrational y."""
    h = bits - 1                            # cosines over 2 scale by 2**h
    two_minus_root3 = (2 << 2 * h) - isqrt(3 << 4 * h) - 1   # floor((2 - sqrt 3) 4**h)
    two_plus_root3 = (2 << 2 * h) + isqrt(3 << 4 * h)        # floor((2 + sqrt 3) 4**h)
    root5 = isqrt(5 << 2 * bits)                              # floor(sqrt 5 * 2**bits)
    forms = {
        Fraction(0): (1 << bits, True),
        Fraction(1, 6): (1 << h, True),
        Fraction(1, 4): (0, True),
        Fraction(1, 3): (-(1 << h), True),
        Fraction(1, 12): (isqrt(3 << 2 * h), False),           # sqrt(3)/2
        Fraction(1, 8): (isqrt(2 << 2 * h), False),            # sqrt(2)/2
        Fraction(3, 8): (-isqrt(2 << 2 * h) - 1, False),       # -sqrt(2)/2
        Fraction(1, 24): (isqrt(two_plus_root3), False),       # sqrt(2 + sqrt 3)/2
        Fraction(5, 24): (isqrt(two_minus_root3), False),      # sqrt(2 - sqrt 3)/2
        Fraction(7, 24): (-isqrt(two_minus_root3) - 1, False),
        Fraction(1, 5): ((root5 - (1 << bits)) // 4, False),   # (sqrt 5 - 1)/4
        Fraction(2, 5): (-((root5 + (1 << bits)) // 4) - 1, False),  # -(sqrt 5 + 1)/4
        Fraction(3, 5): (-((root5 + (1 << bits)) // 4) - 1, False),
    }
    return forms[turns]


@pytest.mark.parametrize("bits", [96, 192])
def test_cosine_tables_equal_the_closed_forms(bits):
    """Every table entry is the exact (floor, ceil) of cos(2 pi k / N) * 2**bits."""
    for order in (3, 4, 5, 6, 8, 12, 24):
        want = []
        for k in range(len(cyclotomic_polynomial(order)) - 1):
            f, exact = _floor_cos(Fraction(k, order), bits)
            want.append((f, f if exact else f + 1))
        assert cyclotomic._cos_bracket(order, bits) == tuple(want), order


def _rounded(u: Fraction, terms) -> tuple[int, float]:
    """Sign and correctly rounded double of u + sum of v * sqrt(r) over the
    (v, r) in terms (v a Fraction, r an integer that is no square), from
    isqrt brackets of each sqrt(r) * 2**bits at doubling bits."""
    bits = 64
    while True:
        lo = hi = u
        for v, r in terms:
            f = isqrt(r << 2 * bits)
            a, b = v * Fraction(f, 1 << bits), v * Fraction(f + 1, 1 << bits)
            lo, hi = lo + min(a, b), hi + max(a, b)
        if (lo > 0 or hi < 0) and float(lo) == float(hi):
            return (1 if lo > 0 else -1), float(lo)
        bits *= 2


def test_floats_are_correctly_rounded():
    rng = random.Random(2718)
    for _ in range(300):
        scale = 10 ** rng.choice((0, 3, 20))
        a, b, c = (rng.randint(-scale, scale) for _ in range(3))
        den = rng.randint(1, 10 ** rng.choice((1, 6, 25)))
        x = (a + b * sqrt_int(2) + c * sqrt_int(3)) / den
        terms = [(Fraction(v, den), r) for v, r in ((b, 2), (c, 3)) if v]
        if not terms:
            assert float(x) == float(Fraction(a, den))
            continue
        want_sign, want = _rounded(Fraction(a, den), terms)
        assert (x.sign(), float(x)) == (want_sign, want), (a, b, c, den)


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.sampled_from((1, 3, 8, 24)))
def test_rational_floats_equal_the_fraction_float(fr, order):
    fr *= Fraction(3 ** 40, 7 ** 30)  # numerators and denominators past 2**53
    assert float(CycNumber.from_rational(fr, order)) == float(fr)


def _interval_bounds(x: CycNumber, prec: int) -> tuple[Fraction, Fraction]:
    """The real part's mpmath interval enclosure, as exact Fractions."""
    import mpmath
    re = x.interval(prec).re
    return tuple(Fraction(*mpmath.libmp.to_rational(end)) for end in re._mpi_)


@settings(max_examples=150, deadline=None)
@given(cyc_numbers(orders=tuple(range(3, 25))))
def test_signs_and_floats_equal_the_interval_loop(a):
    """On real values, sign() equals the sign that interval enclosures at
    doubling precision decide, and float() the double both ends of a
    tight enough enclosure round to."""
    x = a + a.conjugate()
    if x.is_zero():
        assert x.sign() == 0 and float(x) == 0.0
        return
    prec = 64
    while True:
        lo, hi = _interval_bounds(x, prec)
        if (lo > 0 or hi < 0) and float(lo) == float(hi):
            break
        prec *= 2
    assert x.sign() == (1 if lo > 0 else -1)
    assert float(x) == float(lo)


def _close_convergents(quotients):
    """Two consecutive convergents p/q of a continued fraction, each within
    1 / (q q') < 2**-200 of its value (q' the next denominator)."""
    (p0, q0), (p1, q1) = (1, 0), (next(quotients), 1)
    out = []
    for t in quotients:
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        if q0 * q1 > 1 << 200:
            out.append(Fraction(p0, q0))
            if len(out) == 2:
                return out


def _repeat(head, *period):
    yield head
    while True:
        yield from period


def test_near_zero_signs_and_floats_refine():
    """Differences of sqrt 2, sqrt 3 and the golden ratio and their close
    rational approximations are undecided at 96 bits: they refine, and
    their signs and floats are right."""
    cases = []
    for p in _close_convergents(_repeat(1, 2)):
        cases.append((zeta(8) + zeta(8, 7) - p, Fraction(0), [(Fraction(1), 2)], p))
    for p in _close_convergents(_repeat(1, 1, 2)):
        cases.append((sqrt_int(3) - p, Fraction(0), [(Fraction(1), 3)], p))
    for p in _close_convergents(_repeat(1, 1)):
        cases.append(((1 + sqrt_int(5)) / 2 - p, Fraction(1, 2), [(Fraction(1, 2), 5)], p))
    before = dict(cyclotomic.stats)
    signs = []
    for x, u, terms, p in cases:
        want_sign, want = _rounded(u - p, terms)
        assert 0 < abs(want) < 2.0 ** -200
        assert x.sign() == want_sign, p
        assert float(x) == want, p
        signs.append(want_sign)
    # consecutive convergents lie on opposite sides of their value
    assert all(signs[i] == -signs[i + 1] for i in (0, 2, 4))
    grew = {k: cyclotomic.stats[k] - before[k] for k in before}
    assert grew["sign_refined"] == grew["float_refined"] == len(cases)
    assert grew["sign_table"] == grew["float_table"] == 0


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
