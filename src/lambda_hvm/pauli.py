"""Generalized Pauli operators on n qudits of dimension d.

Labels live in the phase space E = Z_d^n x Z_d^n.  The operator attached to
a = (a_Z, a_X) is

    T_a = mu^{phi(a)} Z(a_Z) X(a_X)

with Z the clock (Z|j> = omega^j |j>), X the shift (X|j> = |j+1 mod d>),
omega = exp(2 pi i / d), and mu = omega for odd d, mu = exp(pi i / d) for
even d.  The phase exponent phi is chosen so that (T_a)^d = 1:

    phi(a) = -<a_Z|a_X> * inverse_of_2   (odd d, mod d)
    phi(a) = -<a_Z|a_X>                  (even d, mod 2d)

This module is the only owner of omega = mu^t (t = 1 for odd d, t = 2 for
even d): every other module takes omega powers from `omega_power`, traces
Tr(T_a M) from `PauliMono.trace_with` and dense sums sum_b c_b T_b from
`pauli_sum`.

Because every T_a is a phased permutation matrix, Pauli algebra runs on a
monomial representation (permutation + root-of-unity exponents), which keeps
exhaustive composition/commutation checks cheap.  Dense cyclotomic matrices
are built on demand.

Clifford elements are represented by their exact unitaries; the symplectic
action S_U and phase function on labels are *derived*, never trusted from
input: they are read from the Pauli coefficients of the exact conjugate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .cyclotomic import CycNumber, sqrt_int, zeta
from .linalg import CycMatrix

__all__ = [
    "PhasePoint",
    "phase_space",
    "phase_slots",
    "symplectic_product",
    "beta",
    "beta_mod_d",
    "phi_exponent",
    "PauliMono",
    "pauli_mono",
    "pauli_matrix",
    "pauli_sum",
    "compose_check",
    "omega_power",
    "pauli_order",
    "NotCliffordError",
    "CliffordElement",
    "clifford_from_matrix",
    "clifford_generators",
    "embed",
]


def pauli_order(d: int) -> int:
    """Order of the phase mu: d for odd d, 2d for even d."""
    return d if d % 2 else 2 * d


def _mu_step(d: int) -> int:
    """t with omega = mu^t."""
    return 1 if d % 2 else 2


# ---------------------------------------------------------------------------
# phase-space labels


@dataclass(frozen=True)
class PhasePoint:
    """A point a = (a_Z | a_X) of E = Z_d^n x Z_d^n, components reduced mod d."""

    d: int
    n: int
    az: tuple[int, ...]
    ax: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("qudit dimension must be >= 2")
        if len(self.az) != self.n or len(self.ax) != self.n:
            raise ValueError("component length must equal the qudit count")
        object.__setattr__(self, "az", tuple(v % self.d for v in self.az))
        object.__setattr__(self, "ax", tuple(v % self.d for v in self.ax))

    def _check(self, other: "PhasePoint"):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("phase points live on different systems")

    def __add__(self, other: "PhasePoint") -> "PhasePoint":
        self._check(other)
        return PhasePoint(self.d, self.n,
                          tuple(x + y for x, y in zip(self.az, other.az)),
                          tuple(x + y for x, y in zip(self.ax, other.ax)))

    def __neg__(self) -> "PhasePoint":
        return PhasePoint(self.d, self.n, tuple(-v for v in self.az), tuple(-v for v in self.ax))

    def __sub__(self, other: "PhasePoint") -> "PhasePoint":
        return self + (-other)

    def scale(self, k: int) -> "PhasePoint":
        return PhasePoint(self.d, self.n, tuple(k * v for v in self.az), tuple(k * v for v in self.ax))

    def is_zero(self) -> bool:
        return not any(self.az) and not any(self.ax)

    @staticmethod
    def zero(d: int, n: int) -> "PhasePoint":
        return PhasePoint(d, n, (0,) * n, (0,) * n)

    @staticmethod
    def unit_z(d: int, n: int, site: int = 0) -> "PhasePoint":
        az = [0] * n
        az[site] = 1
        return PhasePoint(d, n, tuple(az), (0,) * n)

    @staticmethod
    def unit_x(d: int, n: int, site: int = 0) -> "PhasePoint":
        ax = [0] * n
        ax[site] = 1
        return PhasePoint(d, n, (0,) * n, tuple(ax))

    def serialize(self) -> str:
        return ("Z:(" + ",".join(map(str, self.az)) + ")|X:("
                + ",".join(map(str, self.ax)) + ")")

    @staticmethod
    def parse(text: str, d: int) -> "PhasePoint":
        bad = ValueError(f"malformed phase point {text!r}")
        parts = text.split("|")
        if len(parts) != 2:
            raise bad
        zpart, xpart = parts
        if not (zpart.startswith("Z:(") and zpart.endswith(")")
                and xpart.startswith("X:(") and xpart.endswith(")")):
            raise bad
        try:
            az = tuple(int(v) for v in zpart[3:-1].split(",") if v != "")
            ax = tuple(int(v) for v in xpart[3:-1].split(",") if v != "")
        except ValueError as exc:
            raise bad from exc
        if not len(az) == len(ax) >= 1:
            raise bad
        return PhasePoint(d, len(az), az, ax)

    def __repr__(self):
        return f"PhasePoint(d={self.d}, {self.serialize()})"


def phase_space(d: int, n: int) -> Iterator[PhasePoint]:
    """All d^{2n} points of E in a fixed lexicographic order."""
    for az in itertools.product(range(d), repeat=n):
        for ax in itertools.product(range(d), repeat=n):
            yield PhasePoint(d, n, az, ax)


@lru_cache(maxsize=None)
def phase_slots(d: int, n: int) -> dict[PhasePoint, int]:
    """Each point's position (slot) in phase_space(d, n), one shared map."""
    return {a: i for i, a in enumerate(phase_space(d, n))}


# ---------------------------------------------------------------------------
# symplectic form and phase functions


def symplectic_product(a: PhasePoint, b: PhasePoint) -> int:
    """[a, b] = <a_Z|b_X> - <a_X|b_Z> mod d; the commutation exponent."""
    a._check(b)
    s = sum(x * y for x, y in zip(a.az, b.ax)) - sum(x * y for x, y in zip(a.ax, b.az))
    return s % a.d


def _phi_hat(az: Sequence[int], ax: Sequence[int], d: int) -> int:
    """Integer-valued phi on canonical representatives (no modular reduction)."""
    ip = sum(z * x for z, x in zip(az, ax))
    return -ip * ((d + 1) // 2) if d % 2 else -ip


def beta(a: PhasePoint, b: PhasePoint) -> Fraction:
    """Composition phase: T_a T_b = omega^{-beta(a,b)} T_{a+b}, exactly.

    Derived over the integers from the canonical representatives:

        T_a T_b = mu^{phi(a) + phi(b) - t <a_X|b_Z>} Z(a_Z+b_Z) X(a_X+b_X)

    with omega = mu^t, and Z(v), X(v) depending on v only mod d.  The value
    is an integer for odd d and a half-integer for even d; on commuting
    pairs it is integral and only its residue mod d enters the value
    assignment condition.  For even d it can differ by d/2 from the naive
    bilinear expression -[a,b]/2 whenever component addition wraps mod d;
    the matrix identity is what fixes the value.
    """
    a._check(b)
    d = a.d
    t = _mu_step(d)
    c = a + b
    expo = (_phi_hat(a.az, a.ax, d) + _phi_hat(b.az, b.ax, d)
            - t * sum(x * z for x, z in zip(a.ax, b.az))
            - _phi_hat(c.az, c.ax, d))
    return Fraction(-expo, t)


def beta_mod_d(a: PhasePoint, b: PhasePoint) -> int:
    """beta reduced into Z_d, valid when the value is an integer."""
    v = beta(a, b)
    if v.denominator != 1:
        raise ValueError(f"beta({a}, {b}) = {v} is not an integer")
    return int(v) % a.d


def phi_exponent(a: PhasePoint) -> int:
    """Exponent of mu in T_a = mu^{phi(a)} Z(a_Z) X(a_X)."""
    return _phi_hat(a.az, a.ax, a.d) % pauli_order(a.d)


def omega_power(d: int, exponent: Fraction | int) -> CycNumber:
    """omega^exponent as an exact root of unity; half-integers allowed for even d."""
    order = pauli_order(d)
    k = exponent * _mu_step(d)
    if isinstance(k, Fraction):
        if k.denominator != 1:
            raise ValueError(f"omega^{exponent} is not a root of unity of order {order}")
        k = k.numerator
    return zeta(order, k % order)


# ---------------------------------------------------------------------------
# monomial (phased permutation) matrices


def _index(digits: Sequence[int], d: int) -> int:
    idx = 0
    for v in digits:
        idx = idx * d + v
    return idx


def _digits(idx: int, d: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = idx % d
        idx //= d
    return tuple(out)


class PauliMono:
    """Phased permutation matrix: column j holds mu^{exp[j]} at row perm[j].

    Products, adjoints, traces and powers of Pauli operators stay in this
    representation, so exhaustive label-algebra checks cost O(d^n) per pair
    instead of dense matrix products.
    """

    __slots__ = ("d", "n", "dim", "perm", "exps")

    def __init__(self, d: int, n: int, perm: tuple[int, ...], exps: tuple[int, ...]):
        self.d = d
        self.n = n
        self.dim = d ** n
        self.perm = perm
        order = pauli_order(d)
        self.exps = tuple(e % order for e in exps)

    def __matmul__(self, other: "PauliMono") -> "PauliMono":
        # (self @ other) e_j = exps_o[j] * self e_{perm_o[j]}
        perm = tuple(self.perm[p] for p in other.perm)
        exps = tuple(self.exps[p] + e for p, e in zip(other.perm, other.exps))
        return PauliMono(self.d, self.n, perm, exps)

    def dagger(self) -> "PauliMono":
        inv = [0] * self.dim
        exps = [0] * self.dim
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            inv[p] = j
            exps[p] = -e
        return PauliMono(self.d, self.n, tuple(inv), tuple(exps))

    def power(self, k: int) -> "PauliMono":
        result = PauliMono.identity(self.d, self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    @staticmethod
    def identity(d: int, n: int) -> "PauliMono":
        dim = d ** n
        return PauliMono(d, n, tuple(range(dim)), (0,) * dim)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) and not any(self.exps)

    def equals_up_to_mu(self, other: "PauliMono") -> Optional[int]:
        """If self == mu^k * other, return k mod the mu order; else None."""
        if self.perm != other.perm:
            return None
        order = pauli_order(self.d)
        diff = (self.exps[0] - other.exps[0]) % order
        for a, b in zip(self.exps, other.exps):
            if (a - b) % order != diff:
                return None
        return diff

    def equals_up_to_omega(self, other: "PauliMono") -> Optional[int]:
        """If self == omega^k * other, return k in Z_d; else None."""
        diff = self.equals_up_to_mu(other)
        t = _mu_step(self.d)
        if diff is None or diff % t:
            return None
        return (diff // t) % self.d

    def __eq__(self, other):
        if not isinstance(other, PauliMono):
            return NotImplemented
        return self.perm == other.perm and self.exps == other.exps

    __hash__ = None

    def trace(self) -> CycNumber:
        order = pauli_order(self.d)
        acc = CycNumber.zero(order)
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            if p == j:
                acc = acc + zeta(order, e)
        return acc

    def trace_with(self, mat: CycMatrix) -> CycNumber:
        """Tr(T M): column j of T meets row j of M only at M[j, perm[j]]."""
        order = pauli_order(self.d)
        acc = CycNumber.zero(order)
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            x = mat[j, p]
            if not x.is_zero():
                acc = acc + zeta(order, e) * x
        return acc

    def to_matrix(self) -> CycMatrix:
        order = pauli_order(self.d)
        z = CycNumber.zero(order)
        rows = [[z] * self.dim for _ in range(self.dim)]
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            rows[p][j] = zeta(order, e)
        return CycMatrix(rows)


@lru_cache(maxsize=None)
def _pauli_mono_cached(a: PhasePoint) -> PauliMono:
    d, n = a.d, a.n
    dim = d ** n
    t = _mu_step(d)
    base = phi_exponent(a)
    perm = []
    exps = []
    for idx in range(dim):
        j = _digits(idx, d, n)
        target = tuple((jv + xv) % d for jv, xv in zip(j, a.ax))
        perm.append(_index(target, d))
        ip = sum(zv * tv for zv, tv in zip(a.az, target))
        exps.append(base + t * ip)
    return PauliMono(d, n, tuple(perm), tuple(exps))


def pauli_mono(a: PhasePoint) -> PauliMono:
    """T_a in the monomial representation (cached)."""
    return _pauli_mono_cached(a)


def pauli_matrix(a: PhasePoint) -> CycMatrix:
    """T_a as a dense exact matrix."""
    return pauli_mono(a).to_matrix()


def pauli_sum(d: int, n: int, terms: Iterable[tuple[PhasePoint, object]]) -> CycMatrix:
    """sum_b c_b T_b as a dense exact matrix, for (label b, coefficient c_b) pairs."""
    dim = d ** n
    order = pauli_order(d)
    zero = CycNumber.zero(order)
    rows = [[zero] * dim for _ in range(dim)]
    for b, c in terms:
        mono = pauli_mono(b)
        for j, (p, e) in enumerate(zip(mono.perm, mono.exps)):
            rows[p][j] = rows[p][j] + zeta(order, e) * c
    return CycMatrix(rows)


def compose_check(a: PhasePoint, b: PhasePoint) -> tuple[Fraction, PhasePoint]:
    """Exponent/label form of T_a T_b: returns (-beta(a,b), a + b)."""
    return -beta(a, b), a + b


# ---------------------------------------------------------------------------
# Clifford elements


class NotCliffordError(ValueError):
    """The given unitary does not normalize the Pauli group."""


class CliffordElement:
    """A Clifford unitary with its derived label action.

    The conjugation table {a -> (phase, S_U(a))} with
    U T_a U^dag = omega^{phase} T_{S_U(a)} is computed eagerly: each label's
    exact conjugate is read off its Pauli coefficients Tr(T_b^dag M), and
    construction fails with NotCliffordError if any conjugate is not
    omega^k T_b.
    """

    def __init__(self, d: int, n: int, unitary: CycMatrix, name: str = "U"):
        dim = d ** n
        if unitary.rows != dim or unitary.cols != dim:
            raise ValueError(f"unitary must be {dim}x{dim}")
        self.d = d
        self.n = n
        self.name = name
        self.unitary = unitary
        self._udag = unitary.dagger()
        if not (unitary @ self._udag) == CycMatrix.identity(dim):
            raise NotCliffordError(f"{name}: matrix is not unitary")
        self.phase_map: dict[PhasePoint, int] = {}
        self.symplectic_map: dict[PhasePoint, PhasePoint] = {}
        for a in phase_space(d, n):
            phase, image = self._conjugate_label(a)
            self.phase_map[a] = phase
            self.symplectic_map[a] = image

    def _conjugate_label(self, a: PhasePoint) -> tuple[int, PhasePoint]:
        # The T_b are an orthogonal basis, Tr(T_b^dag T_c) = d^n [b = c], so
        # M = omega^k T_b exactly when the first nonzero coefficient
        # Tr(T_b^dag M) is d^n omega^k and M equals omega^k T_b.  M is
        # unitary, so some coefficient is nonzero.
        d, dim = self.d, self.d ** self.n
        m = self.unitary @ pauli_matrix(a) @ self._udag
        for b in phase_space(d, self.n):
            coeff = pauli_mono(b).dagger().trace_with(m)
            if not coeff.is_zero():
                break
        k = next((k for k in range(d) if coeff == dim * omega_power(d, k)), None)
        if k is None or m != pauli_matrix(b).scale(omega_power(d, k)):
            raise NotCliffordError(f"{self.name}: conjugate of {a.serialize()} is not a Pauli")
        return k, b

    # -- public API -----------------------------------------------------------

    def conjugate_label(self, a: PhasePoint) -> tuple[int, PhasePoint]:
        """(phase, image) with U T_a U^dag = omega^{phase} T_{image}."""
        return self.phase_map[a], self.symplectic_map[a]

    def apply(self, rho: CycMatrix) -> CycMatrix:
        return self.unitary @ rho @ self._udag

    def compose(self, other: "CliffordElement") -> "CliffordElement":
        """self after other: unitary product self.U @ other.U, revalidated."""
        return CliffordElement(self.d, self.n, self.unitary @ other.unitary,
                               name=f"{self.name}*{other.name}")

    def inverse(self) -> "CliffordElement":
        return CliffordElement(self.d, self.n, self._udag, name=f"{self.name}^-1")

    def __repr__(self):
        return f"CliffordElement({self.name}, d={self.d}, n={self.n})"


def clifford_from_matrix(d: int, n: int, unitary: CycMatrix, name: str = "U") -> CliffordElement:
    return CliffordElement(d, n, unitary, name=name)


# ---------------------------------------------------------------------------
# standard gate constructors


def _fourier_matrix(d: int) -> CycMatrix:
    """Exact DFT gate: (1/sqrt d) [omega^{jk}], rescaled by a unit to stay exact."""
    inv_sqrt = sqrt_int(d).inverse()
    return CycMatrix([[inv_sqrt * omega_power(d, j * k) for k in range(d)] for j in range(d)])


def _phase_gate_matrix(d: int) -> CycMatrix:
    """Quadratic phase gate: diag(omega^{j^2/2}) odd d, diag(mu^{j^2}) even d."""
    rows = []
    zero = CycNumber.zero()
    if d % 2:
        inv2 = (d + 1) // 2
        diag = [zeta(d, (inv2 * j * j) % d) for j in range(d)]
    else:
        diag = [zeta(2 * d, (j * j) % (2 * d)) for j in range(d)]
    for j in range(d):
        rows.append([diag[j] if k == j else zero for k in range(d)])
    return CycMatrix(rows)


def _multiplier_matrix(d: int, u: int) -> CycMatrix:
    """|j> -> |u*j mod d> for a unit u of Z_d."""
    zero, one = CycNumber.zero(), CycNumber.one()
    return CycMatrix([[one if i == (u * j) % d else zero for j in range(d)] for i in range(d)])


def _sum_gate_matrix(d: int) -> CycMatrix:
    """Two-qudit adder |i, j> -> |i, i+j mod d>."""
    dim = d * d
    zero, one = CycNumber.zero(), CycNumber.one()
    rows = [[zero] * dim for _ in range(dim)]
    for i in range(d):
        for j in range(d):
            rows[i * d + ((i + j) % d)][i * d + j] = one
    return CycMatrix(rows)


def embed(gate: CycMatrix, d: int, n: int, sites: Sequence[int]) -> CycMatrix:
    """Embed a gate on len(sites) qudits, acting on the given sites in that
    order (the first site is the most significant digit), into an n-qudit
    register."""
    dim = d ** n
    zero = CycNumber.zero()
    rows = [[zero] * dim for _ in range(dim)]
    for idx_in in range(dim):
        digits_in = _digits(idx_in, d, n)
        col = _index([digits_in[site] for site in sites], d)
        for out in range(gate.rows):
            amp = gate[out, col]
            if amp.is_zero():
                continue
            digits_out = list(digits_in)
            for site, v in zip(sites, _digits(out, d, len(sites))):
                digits_out[site] = v
            rows[_index(digits_out, d)][idx_in] = amp
    return CycMatrix(rows)


def clifford_generators(d: int, n: int) -> list[CliffordElement]:
    """A validated generating set of Clifford gates.

    Single-qudit Fourier, quadratic phase, multiplication by units, Pauli X
    and Z on every site, and the two-qudit SUM on adjacent pairs.  Every
    returned element passed conjugation closure on all of E; no completeness
    claim is made for composite d.
    """
    gates = []
    f, s = _fourier_matrix(d), _phase_gate_matrix(d)
    xz = [("X", pauli_matrix(PhasePoint.unit_x(d, 1))), ("Z", pauli_matrix(PhasePoint.unit_z(d, 1)))]
    units = [u for u in range(2, d) if gcd(u, d) == 1]
    for site in range(n):
        gates.append(CliffordElement(d, n, embed(f, d, n, [site]), name=f"F{site}"))
        gates.append(CliffordElement(d, n, embed(s, d, n, [site]), name=f"S{site}"))
        for label, mat in xz:
            gates.append(CliffordElement(d, n, embed(mat, d, n, [site]), name=f"{label}{site}"))
        for u in units:
            gates.append(CliffordElement(d, n, embed(_multiplier_matrix(d, u), d, n, [site]),
                                         name=f"M{u}_{site}"))
    for site in range(n - 1):
        gates.append(CliffordElement(d, n, embed(_sum_gate_matrix(d), d, n, [site, site + 1]),
                                     name=f"SUM{site}{site + 1}"))
    return gates
