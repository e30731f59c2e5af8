"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar that appears in a qudit Pauli operator, stabilizer projector or
phase-point operator is a rational combination of roots of unity, so all of
the operator algebra in this package runs over these fields exactly.

A value is stored in the power basis {zeta_N^k : 0 <= k < deg Phi_N} reduced
modulo the N-th cyclotomic polynomial Phi_N, as an integer coefficient vector
with a common positive denominator.  The representation is canonical: two
values are equal iff their (order-promoted) coefficient vectors are equal.
Rationals are the order-1 case.

The Galois automorphisms sigma_k: zeta -> zeta^k (k a unit mod N) act on the
power basis through one table per k; complex conjugation is sigma_{-1}.  The
inverse of an irrational x is read off its norm: N(x), the product of
sigma_k(x) over all units k, is a nonzero rational, so
1/x = (prod_{k != 1} sigma_k(x)) / N(x).

Real values (conj(x) == x) admit a decidable sign test.  A rational value
reads its sign off its numerator.  An irrational one is never 0, and its
value x = (sum_k num[k] cos(2 pi k / N)) / den is enclosed in fixed point:
with each cosine bracketed by the integers floor and ceil of
cos(2 pi k / N) * 2**bits (one table per (N, bits), built once), summing
num[k] times the lower or upper end by the sign of num[k] gives integers
lo <= x * den * 2**bits <= hi, with hi - lo <= sum_k |num[k]|.  The sign
is read off lo > 0 or hi < 0, at 96 bits first and at twice the bits
until one holds.  float() refines the same enclosure until both ends round
to the same double, which is then the correctly rounded value of x.

``stats`` counts, for the life of the process, signs and floats decided as
rationals, by the enclosure at 96 bits and after refinement, and the
cosine tables built.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm

__all__ = [
    "CycNumber",
    "ComplexInterval",
    "cyclotomic_polynomial",
    "zeta",
    "rational",
    "sqrt_int",
    "SignUndecidedError",
    "stats",
]

# Signs and floats start from a 96-bit enclosure and double its bits until
# they decide; the sign test gives up beyond _MAX_SIGN_BITS.  All numbers
# produced in this package decide long before reaching it.
_START_BITS = 96
_MAX_SIGN_BITS = 4096

stats = {"sign_rational": 0, "sign_table": 0, "sign_refined": 0,
         "float_rational": 0, "float_table": 0, "float_refined": 0, "tables": 0}


class SignUndecidedError(ArithmeticError):
    """Raised if the sign test hits the precision cap (never expected)."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


def _monic_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    """num / den for integer polynomials (low degree first), den monic and
    dividing num exactly."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coef = out[k] = num[k + len(den) - 1]
        if coef:
            for j, c in enumerate(den):
                num[k + j] -= coef * c
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, monic with integer entries.

    x^n - 1 is the product of Phi_d over the divisors d of n, so dividing it
    by Phi_d for every proper divisor leaves Phi_n.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _monic_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[int, ...], ...]:
    """Row k: integer coefficients of zeta_order^k in the power basis, 0<=k<order."""
    deg = _degree(order)
    phi = cyclotomic_polynomial(order)
    rows: list[tuple[int, ...]] = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(order):
        rows.append(tuple(cur))
        # multiply by x, reduce mod Phi (monic)
        lead = cur[deg - 1]
        nxt = [0] + cur[: deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi[i]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _promotion_table(small: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Row k: basis image of zeta_small^k inside Q(zeta_big), for k < deg(small)."""
    if big % small != 0:
        raise ValueError(f"{small} does not divide {big}")
    step = big // small
    tab = _power_table(big)
    return tuple(tab[(k * step) % big] for k in range(_degree(small)))


@lru_cache(maxsize=None)
def _galois_table(order: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Row j: basis image of zeta^{jk}, for j < deg(order); the automorphism
    sigma_k: zeta -> zeta^k of Q(zeta_order), for k a unit mod order."""
    tab = _power_table(order)
    return tuple(tab[(j * k) % order] for j in range(_degree(order)))


def _map_basis(num: tuple[int, ...], table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Coefficients of sum_k num[k] * table[k]: a linear map given by the
    basis images of its rows."""
    out = [0] * len(table[0])
    for c, row in zip(num, table):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return tuple(out)


def _content(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for c in nums:
        g = gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return (0,) * len(nums), 1
    g = gcd(g, den)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple(c // g for c in nums)
        den //= g
    return nums, den


# ---------------------------------------------------------------------------
# complex interval enclosures (rigorous, via mpmath.iv)


class ComplexInterval:
    """Rectangular complex enclosure with mpmath interval endpoints."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def contains(self, other: "ComplexInterval") -> bool:
        return (self.re.a <= other.re.a and other.re.b <= self.re.b
                and self.im.a <= other.im.a and other.im.b <= self.im.b)

    def width(self) -> float:
        return float(max(self.re.delta, self.im.delta))

    def midpoint(self) -> complex:
        return complex(float(self.re.mid), float(self.im.mid))

    def __repr__(self):
        return f"ComplexInterval(re={self.re}, im={self.im})"


@lru_cache(maxsize=None)
def _float_roots(order: int) -> tuple[complex, ...]:
    import cmath
    return tuple(cmath.exp(2j * cmath.pi * k / order) for k in range(_degree(order)))


def _eval_interval(order: int, nums: tuple[int, ...], den: int, prec: int) -> ComplexInterval:
    # mpmath holds about 8 MB once imported; exact runs whose signs are all
    # rational (cold d=3 kernels, for one) never need an enclosure
    import mpmath

    iv = mpmath.iv
    old = iv.prec
    iv.prec = prec
    try:
        two_pi = 2 * iv.pi
        re = iv.mpf(0)
        im = iv.mpf(0)
        for k, c in enumerate(nums):
            if c == 0:
                continue
            coef = iv.mpf(c) / den
            if k == 0:
                re += coef
                continue
            angle = two_pi * k / order
            re += coef * iv.cos(angle)
            im += coef * iv.sin(angle)
        return ComplexInterval(re, im)
    finally:
        iv.prec = old


# ---------------------------------------------------------------------------
# fixed-point enclosures of real values

# cos(2 pi a / b), a a unit mod b, is rational exactly for these b
_RATIONAL_COS = {1: Fraction(1), 2: Fraction(-1), 3: Fraction(-1, 2), 4: Fraction(0),
                 6: Fraction(1, 2)}


@lru_cache(maxsize=None)
def _cos_bracket(order: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Entry k: (floor, ceil) of cos(2 pi k / order) * 2**bits, k < deg Phi_order.

    A rational cosine scales to an integer, so floor == ceil.  An irrational
    one is read from the interval enclosure of zeta^k at bits + 40 bits,
    whose endpoints convert exactly to Fractions, and again at twice the
    precision while the enclosure straddles an integer; an irrational
    value is never one, so its entry is exact, with ceil == floor + 1.
    """
    from mpmath.libmp import to_rational

    stats["tables"] += 1
    deg, scale = _degree(order), 1 << bits
    out = []
    for k in range(deg):
        exact = _RATIONAL_COS.get(order // gcd(k, order))
        if exact is not None:
            m = int(exact * scale)
            out.append((m, m))
            continue
        unit = tuple(int(j == k) for j in range(deg))
        prec = bits + 40
        while True:
            a, b = (Fraction(*to_rational(end))
                    for end in _eval_interval(order, unit, 1, prec).re._mpi_)
            lo, hi = floor(a * scale), ceil(b * scale)
            if hi == lo + 1:
                break
            prec *= 2
        out.append((lo, hi))
    return tuple(out)


def _real_enclosure(order: int, nums: tuple[int, ...], bits: int) -> tuple[int, int]:
    """Integers lo <= Re(x) * den * 2**bits <= hi for x = (sum_k nums[k] zeta^k) / den.

    Each coefficient takes the lower or the upper end of its cosine's
    bracket by its sign, so hi - lo <= sum_k |nums[k]|.
    """
    lo = hi = 0
    for c, (f, g) in zip(nums, _cos_bracket(order, bits)):
        if c > 0:
            lo += c * f
            hi += c * g
        elif c < 0:
            lo += c * g
            hi += c * f
    return lo, hi


# ---------------------------------------------------------------------------
# the number type


class CycNumber:
    """Element of Q(zeta_order), canonical in the power basis mod Phi_order.

    Immutable; all arithmetic returns new values.  Mixed-order arithmetic
    promotes both operands into Q(zeta_lcm) first, so values of different
    declared orders compare and combine correctly.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1, _canonical: bool = False):
        deg = _degree(order)
        if len(num) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = _content(tuple(num), den)
        self.order = order
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x, order: int = 1) -> "CycNumber":
        """An int, Fraction or CycNumber x declared in Q(zeta_lcm(order, x's order)).

        A CycNumber x comes back as is when order is 1.
        """
        if isinstance(x, CycNumber):
            return x if order == 1 else x.promoted(lcm(x.order, order))
        fr = Fraction(x)
        deg = _degree(order)
        num = [0] * deg
        num[0] = fr.numerator
        return CycNumber(order, tuple(num), fr.denominator)

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycNumber":
        row = _power_table(order)[power % order]
        return CycNumber(order, row, 1)

    @staticmethod
    def zero(order: int = 1) -> "CycNumber":
        return CycNumber(order, (0,) * _degree(order), 1, _canonical=True)

    @staticmethod
    def one(order: int = 1) -> "CycNumber":
        return CycNumber.from_rational(1, order)

    # -- representation utilities ------------------------------------------

    def promoted(self, order: int) -> "CycNumber":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot promote order {self.order} into {order}")
        return CycNumber(order, _map_basis(self.num, _promotion_table(self.order, order)), self.den)

    def demoted(self, order: int) -> "CycNumber | None":
        """The same value inside Q(zeta_order), or None if it does not lie there.

        Decided exactly: the candidate basis expansion is solved as a
        rational linear system inside Q(zeta_lcm).
        """
        if order == self.order:
            return self
        big = lcm(self.order, order)
        target = self.promoted(big)
        basis = _promotion_table(order, big)
        deg_small, deg_big = _degree(order), _degree(big)
        # solve sum_k c_k basis[k] = target over Q; the basis images are
        # independent, so every one of the deg_small columns gets a pivot
        from .linalg import row_reduce  # linalg imports this module
        rows = [[basis[k][i] for k in range(deg_small)] + [Fraction(target.num[i], target.den)]
                for i in range(deg_big)]
        row_reduce(rows, deg_small)
        if any(row[deg_small] for row in rows[deg_small:]):
            return None
        sol = [row[deg_small] for row in rows[:deg_small]]
        den = lcm(*(c.denominator for c in sol))
        return CycNumber(order, tuple(int(c * den) for c in sol), den)

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.order == self.order:
                return self, other
            m = lcm(self.order, other.order)
            return self.promoted(m), other.promoted(m)
        if isinstance(other, (int, Fraction)):
            return self, CycNumber.from_rational(Fraction(other), self.order)
        return self, NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = tuple(x * ma + y * mb for x, y in zip(a.num, b.num))
        return CycNumber(a.order, num, da // g * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.num), self.den, _canonical=True)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        deg = _degree(a.order)
        if deg == 1:
            return CycNumber(a.order, (a.num[0] * b.num[0],), a.den * b.den)
        # integer convolution then reduction of the high powers
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a.num):
            if x:
                bn = b.num
                for j in range(deg):
                    y = bn[j]
                    if y:
                        conv[i + j] += x * y
        table = _power_table(a.order)
        out = conv[:deg]
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = table[k % a.order]
                for i in range(deg):
                    out[i] += c * row[i]
        return CycNumber(a.order, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/x = (prod of sigma_k(x) over the units k != 1) / N(x), where the
        norm N(x), the product over every unit k, is a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            fr = 1 / self.as_fraction()
            return CycNumber.from_rational(fr, self.order)
        others = CycNumber.one(self.order)
        for k in range(2, self.order):
            if gcd(k, self.order) == 1:
                others = others * self.galois(k)
        return others * (1 / (self * others).as_fraction())

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def galois(self, k: int) -> "CycNumber":
        """sigma_k(x), the image under zeta -> zeta^k; k must be a unit mod order."""
        if gcd(k, self.order) != 1:
            raise ValueError(f"{k} is not a unit modulo {self.order}")
        table = _galois_table(self.order, k % self.order)
        return CycNumber(self.order, _map_basis(self.num, table), self.den)

    def conjugate(self) -> "CycNumber":
        return self.galois(-1)

    def real_part(self) -> "CycNumber":
        return (self + self.conjugate()) / 2

    def imag_part(self) -> "CycNumber":
        # (x - conj x) / (2i) with i = zeta_4, in an order divisible by 4
        return (self - self.conjugate()) * _inverse_two_i(lcm(self.order, 4))

    def abs_squared(self) -> "CycNumber":
        return self * self.conjugate()

    # -- comparisons / hashing-free keys -------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(Fraction(other), 1)
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._coerce(other)
        return a.num == b.num and a.den == b.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # equality crosses orders; use key(order) for dict keys

    def key(self, order: int) -> tuple:
        """Hashable canonical key of this value inside Q(zeta_order)."""
        p = self.promoted(order)
        return (order, p.num, p.den)

    # -- numeric views --------------------------------------------------------

    def interval(self, prec: int = 64) -> ComplexInterval:
        """Rigorous rectangular enclosure of the exact value."""
        if prec < 53:
            raise ValueError("precision below 53 bits is not supported")
        return _eval_interval(self.order, self.num, self.den, prec)

    def approx(self) -> complex:
        """Fast double-precision estimate (not rigorous; use interval() for proofs)."""
        if self.is_rational():
            return complex(self.num[0] / self.den)
        roots = _float_roots(self.order)
        acc = 0j
        for k, c in enumerate(self.num):
            if c:
                acc += c * roots[k]
        return acc / self.den

    def __complex__(self) -> complex:
        return self.interval(64).midpoint()

    def __float__(self) -> float:
        """The correctly rounded double of a real value.

        A rational p/q is p / q, Python's correctly rounded int division.
        Otherwise the enclosure lo <= x * den * 2**bits <= hi is taken at 96
        bits, then at twice the bits, until lo / (den << bits) and
        hi / (den << bits), both correctly rounded, are equal.  Rounding is
        monotone, so that double is the rounding of x; and it ends, since
        an irrational x is never a rounding boundary.
        """
        if self.is_rational():
            stats["float_rational"] += 1
            return self.num[0] / self.den
        if not self.is_real():
            raise ValueError("not a real value")
        bits = _START_BITS
        while True:
            lo, hi = _real_enclosure(self.order, self.num, bits)
            scale = self.den << bits
            f = lo / scale
            if f == hi / scale:
                stats["float_table" if bits == _START_BITS else "float_refined"] += 1
                return f
            bits *= 2

    def sign(self) -> int:
        """Exact sign of a real value: -1, 0 or +1.

        A rational value reads it off its numerator; an irrational one is
        not 0.  Its enclosure lo <= x * den * 2**bits <= hi is taken at 96
        bits, then at twice the bits, until lo > 0 (+1) or hi < 0 (-1).
        Since hi - lo <= sum_k |num[k]|, that holds once |x| * den * 2**bits
        exceeds this sum.  SignUndecidedError past _MAX_SIGN_BITS bits.
        """
        if self.is_rational():
            stats["sign_rational"] += 1
            n = self.num[0]
            return (n > 0) - (n < 0)
        if not self.is_real():
            raise ValueError("sign of a non-real value")
        bits = _START_BITS
        while bits <= _MAX_SIGN_BITS:
            lo, hi = _real_enclosure(self.order, self.num, bits)
            if lo > 0 or hi < 0:
                stats["sign_table" if bits == _START_BITS else "sign_refined"] += 1
                return 1 if lo > 0 else -1
            bits *= 2
        raise SignUndecidedError(f"sign undecided at {_MAX_SIGN_BITS} bits: {self!r}")

    def _compare(self, other, op):
        """op(sign of self - other, 0), or NotImplemented for other types;
        against the int 0 the sign is self.sign(), with no subtraction."""
        if type(other) is int and other == 0:
            return op(self.sign(), 0)
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return op((a - b).sign(), 0)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        """Text form "N; c0, c1, ..." with each coefficient as p or p/q."""
        parts = []
        for c in self.num:
            fr = Fraction(c, self.den)
            parts.append(str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}")
        return f"{self.order}; " + ", ".join(parts)

    _TOKEN = re.compile(r"^-?\d+(/\d+)?$")

    @staticmethod
    def parse(text: str) -> "CycNumber":
        head, _, tail = text.partition(";")
        if not tail:
            raise ValueError(f"malformed cyclotomic literal: {text!r}")
        order = int(head.strip())
        coeffs = []
        for tok in tail.split(","):
            tok = tok.strip()
            if not CycNumber._TOKEN.match(tok):
                raise ValueError(f"bad coefficient {tok!r} in {text!r}")
            coeffs.append(Fraction(tok))
        if len(coeffs) != _degree(order):
            raise ValueError(f"order {order} needs {_degree(order)} coefficients, got {len(coeffs)}")
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        nums = tuple(int(c * den) for c in coeffs)
        return CycNumber(order, nums, den)

    def __repr__(self):
        return f"CycNumber({self.serialize()!r})"


# ---------------------------------------------------------------------------
# convenience constructors


def zeta(order: int, power: int = 1) -> CycNumber:
    return CycNumber.root_of_unity(order, power)


def rational(x) -> CycNumber:
    return CycNumber.from_rational(x)


@lru_cache(maxsize=None)
def _inverse_two_i(order: int) -> CycNumber:
    """1 / (2 zeta_4) in Q(zeta_order), for order divisible by 4."""
    return (2 * zeta(order, order // 4)).inverse()


@lru_cache(maxsize=None)
def sqrt_int(k: int) -> CycNumber:
    """Exact sqrt(k) for a positive integer, as a cyclotomic number.

    Uses sqrt(2) = zeta_8 + zeta_8^-1 and quadratic Gauss sums
    sum_j zeta_p^{j^2} (= sqrt(p) for p = 1 mod 4, i*sqrt(p) for p = 3 mod 4)
    for odd primes p.
    """
    if k <= 0:
        raise ValueError("need a positive integer")
    square, rest = 1, k
    f = 2
    factors = []
    while f * f <= rest:
        while rest % (f * f) == 0:
            square *= f
            rest //= f * f
        if rest % f == 0:
            factors.append(f)
            rest //= f
        f += 1
    if rest > 1:
        factors.append(rest)
    out = CycNumber.from_rational(square)
    for p in factors:
        if p == 2:
            root = zeta(8) + zeta(8, 7)
        else:
            g = CycNumber.zero(p)
            for j in range(p):
                g = g + zeta(p, (j * j) % p)
            if p % 4 == 1:
                root = g
            else:
                m = lcm(4 * p, 4)
                root = g.promoted(m) / zeta(4)  # g = i*sqrt(p)
        out = out * root
    if not (out.is_real() and out.sign() > 0):
        raise AssertionError(f"sqrt({k}) came out non-real or non-positive")
    return out
