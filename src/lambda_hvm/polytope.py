"""The stabilizer polytope, its polar dual Lambda, and vertex certification.

Lambda = {X Hermitian, Tr X = 1, Tr(P_sigma X) >= 0 for every pure stabilizer
state sigma}.  Operators are flattened to real coordinate vectors

    (X_00, ..., X_{D-1,D-1}, Re X_01, Im X_01, Re X_02, ...)

so that Tr(P X) is an exact linear functional; all coordinates are real
cyclotomic numbers.  A vertex certificate is exact: every inequality holds,
and the facets active at the point span (after projecting out the trace
direction) a space of dimension D^2 - 1, making the point the unique
solution of its active system.  The rank is certified modulo a prime, with
an exact fallback whenever that comes out short.

Vertex enumeration is exact and complete: double description on the facet
cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import CycNumber, zeta
from .dd import extreme_rays
from .exact_lp import PreparedRows
from .linalg import CycMatrix, dot, exact_rank
from .pauli import (PhasePoint, omega_power, pauli_mono, pauli_order,
                    phase_slots, phase_space)
from .stabilizer import (IsotropicSubgroup, StabilizerProjector,
                         ValueAssignment, closure_under_inference,
                         enumerate_isotropics, group_projector_matrix,
                         projector, projector_matrix, value_assignments)

__all__ = [
    "coord_order",
    "operator_coords",
    "projector_coords",
    "matrix_from_coords",
    "functional_vector",
    "coords_key",
    "stabilizer_states",
    "LambdaHRep",
    "lambda_hrep",
    "hrep_from_operators",
    "membership",
    "VertexCertificate",
    "VertexRejection",
    "certify_vertex",
    "stats",
    "VertexSet",
    "enumerate_vertices",
    "cnc_phase_point",
    "additive_assignments",
    "wigner_operator",
    "pauli_coefficient",
    "pauli_coefficients",
    "detect_cnc_form",
    "PauliBound",
    "pauli_bound",
    "polar_dual_vertices",
    "duality_dilation_check",
    "save_vertex_file",
    "load_vertex_file",
    "save_facet_file",
    "load_facet_file",
]


# certify_vertex calls by the path that decided the rank: "modp" certified
# modulo a prime, "exact" fell back to the exact rank.
stats = {"modp": 0, "exact": 0}


def coord_order(d: int) -> int:
    """Cyclotomic order of the coordinate field: needs both mu and i."""
    return lcm(pauli_order(d), 4)


# ---------------------------------------------------------------------------
# coordinates


def operator_coords(mat: CycMatrix, d: int) -> tuple[CycNumber, ...]:
    """Flatten a Hermitian matrix to real coordinates, exactly.

    Coordinates are promoted at least into the facet coordinate field;
    operators with entries in a larger cyclotomic field (e.g. magic states)
    keep the larger order, and mixed-order arithmetic handles the rest.
    """
    order = coord_order(d)
    dim = mat.rows
    out = []
    for i in range(dim):
        x = mat[i, i]
        if not x.is_real():
            raise ValueError("matrix has a non-real diagonal entry")
        out.append(CycNumber.from_rational(x, order))
    for i in range(dim):
        for j in range(i + 1, dim):
            x = mat[i, j]
            out.append(CycNumber.from_rational(x.real_part(), order))
            out.append(CycNumber.from_rational(x.imag_part(), order))
    return tuple(out)


@lru_cache(maxsize=None)
def projector_coords(group: IsotropicSubgroup, r: ValueAssignment) -> tuple[CycNumber, ...]:
    """operator_coords of the cached projector Pi_I^r, once per (group, r)
    for the life of the process."""
    return operator_coords(group_projector_matrix(group, r), group.d)


def matrix_from_coords(coords: Sequence[CycNumber], d: int, n: int) -> CycMatrix:
    dim = d ** n
    if len(coords) != dim * dim:
        raise ValueError(f"need {dim * dim} coordinates")
    i_unit = zeta(4)
    rows = [[CycNumber.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = coords[i]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            re, im = coords[k], coords[k + 1]
            k += 2
            rows[i][j] = re + i_unit * im
            rows[j][i] = re - i_unit * im
    return CycMatrix(rows)


def functional_vector(mat: CycMatrix, d: int) -> tuple[CycNumber, ...]:
    """Vector f with Tr(mat . X) = f . coords(X) for Hermitian X: the
    coordinates of mat with the off-diagonal pairs doubled."""
    coords = operator_coords(mat, d)
    return coords[:mat.rows] + tuple(2 * x for x in coords[mat.rows:])


def coords_key(coords: Sequence[CycNumber], d: int) -> Optional[tuple]:
    """Canonical hashable key inside the facet coordinate field.

    Values represented in a larger field are demoted exactly when possible;
    None means the point genuinely lies outside the field (so it cannot be
    a vertex of this polytope).
    """
    order = coord_order(d)
    out = []
    for c in coords:
        p = _in_field(c, order)
        if p is None:
            return None
        out.append((p.num, p.den))
    return tuple(out)


def _in_field(x: CycNumber, order: int) -> Optional[CycNumber]:
    """x declared at exactly this order, or None if it lies outside Q(zeta_order)."""
    if order % x.order == 0:
        return x.promoted(order)
    return x.demoted(order)


# ---------------------------------------------------------------------------
# stabilizer states and the H-representation


@lru_cache(maxsize=None)
def stabilizer_states(d: int, n: int) -> tuple[StabilizerProjector, ...]:
    """All pure stabilizer states as rank-1 projectors, deduplicated."""
    out = []
    seen = set()
    for group in enumerate_isotropics(d, n, only_maximal=True):
        for r in value_assignments(group):
            proj = projector(group, r)
            key = coords_key(projector_coords(group, r), d)
            if key not in seen:
                seen.add(key)
                out.append(proj)
    return tuple(out)


@dataclass(frozen=True)
class LambdaHRep:
    """Facet description: one inequality Tr(F_i X) >= 0 per operator F_i."""

    d: int
    n: int
    labels: tuple[str, ...]
    operators: tuple[CycMatrix, ...]
    vectors: tuple[tuple[CycNumber, ...], ...]

    @property
    def dim(self) -> int:
        return (self.d ** self.n) ** 2

    def facet_count(self) -> int:
        return len(self.vectors)

    def trace_vector(self) -> tuple[CycNumber, ...]:
        dim = self.d ** self.n
        one, zero = CycNumber.one(), CycNumber.zero()
        return tuple([one] * dim + [zero] * (dim * dim - dim))

    @cached_property
    def _facets_mod_p(self) -> tuple[int, list[Optional[list[int]]]]:
        """(p, images): every facet functional restricted to the trace-zero
        subspace, mapped into GF(p) once for certify_vertex (_rows_mod_p)."""
        return _rows_mod_p(_projected_rows(self, range(self.facet_count())))


def hrep_from_operators(d: int, n: int, named_ops: Iterable[tuple[str, CycMatrix]]) -> LambdaHRep:
    labels, ops, vecs = [], [], []
    for name, mat in named_ops:
        labels.append(name)
        ops.append(mat)
        vecs.append(functional_vector(mat, d))
    return LambdaHRep(d, n, tuple(labels), tuple(ops), tuple(vecs))


@lru_cache(maxsize=None)
def lambda_hrep(d: int, n: int) -> LambdaHRep:
    """The H-representation of Lambda: one facet per pure stabilizer state."""
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    states = stabilizer_states(d, n)
    names = []
    for proj in states:
        gens = ",".join(g.serialize() for g in proj.group.generators)
        vals = ",".join(str(proj.assignment(g)) for g in proj.group.generators)
        names.append(f"I=<{gens}>;r=({vals})")
    return hrep_from_operators(d, n, zip(names, (p.matrix for p in states)))


def membership(coords: Sequence[CycNumber], hrep: LambdaHRep) -> tuple[bool, list[int], list[int]]:
    """(is_member, active facet indices, violated facet indices), exact."""
    active, violated = [], []
    for idx, vec in enumerate(hrep.vectors):
        s = dot(vec, coords).sign()
        if s == 0:
            active.append(idx)
        elif s < 0:
            violated.append(idx)
    return not violated, active, violated


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class VertexCertificate:
    active: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class VertexRejection:
    reason: str
    violated: tuple[int, ...]
    rank: int


def _projected_rows(hrep: LambdaHRep, indices: Iterable[int]) -> list[list[CycNumber]]:
    """Facet functionals restricted to the trace-zero subspace."""
    dim = hrep.d ** hrep.n
    inv_dim = Fraction(1, dim)
    rows = []
    for idx in indices:
        vec = hrep.vectors[idx]
        tr = hrep.operators[idx].trace() * inv_dim
        row = list(vec)
        for i in range(dim):
            row[i] = row[i] - tr
        rows.append(row)
    return rows


# Any prime p = 1 (mod N) gives a sound certificate.  A large one makes it
# unlikely that p divides a nonzero minor, which would only send the point
# to the exact rank.
_MODP_FLOOR = 1 << 61


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for q in bases:
        if m % q == 0:
            return m == q
    s, t = 0, m - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + ([m] if m > 1 else [])


@lru_cache(maxsize=None)
def _modp_field(order: int) -> tuple[int, int]:
    """(p, z): the first prime p = 1 (mod order) above 2^61, and a primitive
    order-th root of unity z mod p, so zeta_order -> z is a ring map."""
    p = _MODP_FLOOR - _MODP_FLOOR % order + 1
    while not _is_prime(p):
        p += order
    factors = _prime_factors(order)
    for h in itertools.count(2):
        z = pow(h, (p - 1) // order, p)
        if all(pow(z, order // q, p) != 1 for q in factors):
            return p, z


def _rows_mod_p(rows: list[list[CycNumber]]) -> tuple[int, list[Optional[list[int]]]]:
    """(p, images): each row mapped entrywise into GF(p) under zeta_N -> z,
    N the lcm of the entry orders; None for a row where p divides a
    denominator.

    The map is a ring map, so a minor that is nonzero mod p is nonzero in
    the field: the rank of the images is a lower bound on the exact rank.
    """
    order = lcm(1, *(x.order for row in rows for x in row))
    p, z = _modp_field(order)
    powers: dict[int, list[int]] = {}
    images = []
    for row in rows:
        vec: Optional[list[int]] = []
        for x in row:
            if x.den % p == 0:
                vec = None
                break
            tab = powers.get(x.order)
            if tab is None:
                root = pow(z, order // x.order, p)
                tab = powers[x.order] = [pow(root, k, p) for k in range(len(x.num))]
            vec.append(sum(c * t for c, t in zip(x.num, tab)) * pow(x.den, -1, p) % p)
        images.append(vec)
    return p, images


def _rank_mod_p(images: Sequence[Optional[list[int]]], p: int, target: int) -> Optional[int]:
    """Rank of the row images over GF(p), counted up to target; None
    (undecided) if any row has no image."""
    if any(vec is None for vec in images):
        return None
    pivots: dict[int, list[int]] = {}
    for vec in images:
        for col, prow in pivots.items():
            f = vec[col]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, prow)]
        col = next((j for j, a in enumerate(vec) if a), None)
        if col is None:
            continue
        inv = pow(vec[col], -1, p)
        pivots[col] = [a * inv % p for a in vec]
        if len(pivots) == target:
            break
    return len(pivots)


def certify_vertex(coords: Sequence[CycNumber], hrep: LambdaHRep):
    """Exact vertex certificate for a trace-one operator, or a rejection.

    Checks every facet inequality exactly and that the active functionals
    pin the point uniquely inside the trace-one affine space (projected
    rank D^2 - 1).  The rank is certified modulo a prime p = 1 (mod N),
    with zeta_N mapped to an N-th root of unity mod p: the projected rows
    span at most D^2 - 1 dimensions, and a rank of D^2 - 1 mod p is a lower
    bound on the exact rank, so the two agree.  When p divides a
    denominator or the rank mod p comes out short, the exact rank decides,
    and it gives every rejection.  `stats` counts which path decided.
    """
    target = hrep.dim - 1
    ok, active, violated = membership(coords, hrep)
    if not ok:
        return VertexRejection("facet inequality violated", tuple(violated), -1)
    if not active:
        return VertexRejection("interior point: no active facets", (), 0)
    p, images = hrep._facets_mod_p
    if _rank_mod_p([images[i] for i in active], p, target) == target:
        stats["modp"] += 1
        return VertexCertificate(tuple(active), target)
    stats["exact"] += 1
    rank = exact_rank(_projected_rows(hrep, active))
    if rank != target:
        return VertexRejection(f"active set rank {rank} < {target}", (), rank)
    return VertexCertificate(tuple(active), rank)


# ---------------------------------------------------------------------------
# vertex enumeration


@dataclass(frozen=True)
class VertexInfo:
    index: int
    matrix: CycMatrix
    coords: tuple[CycNumber, ...]
    certificate: VertexCertificate


class VertexSet:
    """Certified vertices of Lambda with a canonical exact index."""

    def __init__(self, hrep: LambdaHRep, vertices: Sequence[VertexInfo]):
        self.hrep = hrep
        self.d, self.n = hrep.d, hrep.n
        self.vertices = tuple(vertices)
        self.index = {coords_key(v.coords, self.d): v.index for v in self.vertices}

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, idx: int) -> VertexInfo:
        return self.vertices[idx]

    def lookup(self, coords: Sequence[CycNumber]) -> Optional[int]:
        return self.index.get(coords_key(coords, self.d))

    def lookup_matrix(self, mat: CycMatrix) -> Optional[int]:
        return self.lookup(operator_coords(mat, self.d))

    @cached_property
    def label_index(self) -> tuple[dict[PhasePoint, int], list[tuple[CycNumber, ...]], dict[tuple, int]]:
        """The vertices by their Pauli coefficients, built on first use.

        Returns (slots, coefficients, index): the position of each label in
        phase_space order; for each vertex A its x_a = Tr(T_a^dag A) in that
        order, declared at coord_order(d); and a map from the tuple of their
        (num, den) to the vertex index.  A = (1/D) sum_a x_a T_a, so this
        index is as exact as `index`.
        """
        order = coord_order(self.d)
        slots = phase_slots(self.d, self.n)
        coefficients = [tuple(_in_field(pauli_coefficient(v.matrix, a), order) for a in slots)
                        for v in self.vertices]
        index = {tuple((x.num, x.den) for x in xs): v.index
                 for xs, v in zip(coefficients, self.vertices)}
        return slots, coefficients, index

    @cached_property
    def certificate_masks(self) -> tuple[int, ...]:
        """Per vertex, the bitmask of the facets active in its certificate."""
        return tuple(sum(1 << i for i in v.certificate.active) for v in self.vertices)

    @cached_property
    def stabilizer_faces(self) -> dict[tuple, tuple[IsotropicSubgroup, int]]:
        """Each pure stabilizer state Pi_I^r by its coords key -> (I, the
        bitmask of the facets tight at it), built on first use.

        A vertex whose certificate mask contains that bitmask lies on the
        state's minimal face of Lambda.
        """
        out = {}
        for proj in stabilizer_states(self.d, self.n):
            coords = projector_coords(proj.group, proj.assignment)
            _, active, _ = membership(coords, self.hrep)
            out[coords_key(coords, self.d)] = (proj.group, sum(1 << i for i in active))
        return out

    @cached_property
    def lp_rows(self) -> PreparedRows:
        """The rows of the exact decomposition system, prepared once: row k
        holds coordinate k of every vertex, and a last row of ones makes the
        weights sum to 1.  Built on first use; solves share it, not results."""
        rows = [list(row) for row in zip(*(v.coords for v in self.vertices))]
        rows.append([Fraction(1)] * len(self.vertices))
        return PreparedRows(rows)

    @cached_property
    def float_coords(self) -> np.ndarray:
        """The vertex coordinates as floats, one column per vertex: the
        matrix the numeric decomposition solves against."""
        return np.array([[c.approx().real for c in v.coords] for v in self.vertices], dtype=float).T

    @cached_property
    def complex_matrices(self) -> np.ndarray:
        """The vertex matrices as complex arrays, stacked in vertex order."""
        return np.array([v.matrix.to_complex() for v in self.vertices])


def _vertices_from_coord_list(hrep: LambdaHRep, coord_list: Iterable[Sequence[CycNumber]]) -> VertexSet:
    infos = []
    seen = set()
    for coords in coord_list:
        key = coords_key(coords, hrep.d)
        if key in seen:
            continue
        cert = certify_vertex(coords, hrep)
        if not isinstance(cert, VertexCertificate):
            raise AssertionError(f"enumerated point failed certification: {cert}")
        seen.add(key)
        infos.append((key, coords, cert))
    infos.sort(key=lambda item: item[0])
    out = [VertexInfo(i, matrix_from_coords(c, hrep.d, hrep.n), tuple(c), cert)
           for i, (_, c, cert) in enumerate(infos)]
    return VertexSet(hrep, out)


def enumerate_vertices(hrep: LambdaHRep) -> VertexSet:
    """Complete certified vertex enumeration of the polytope, by double
    description on the homogenization cone {Tr(F_i X) >= 0}; the vertex list
    is sorted by exact key."""
    rays = extreme_rays(hrep.vectors, hrep.dim)
    dim = hrep.d ** hrep.n
    coord_list = []
    for ray in rays:
        c = list(ray.coords)
        if not isinstance(c[0], CycNumber):
            c = [CycNumber.from_rational(v) for v in c]
        tr = c[0]
        for v in c[1:dim]:
            tr = tr + v
        s = tr.sign()
        if s <= 0:
            raise AssertionError("cone ray with nonpositive trace: Lambda unbounded?")
        inv = tr.inverse()
        coord_list.append([v * inv for v in c])
    return _vertices_from_coord_list(hrep, coord_list)


# ---------------------------------------------------------------------------
# phase-point operators


def cnc_phase_point(points: Iterable[PhasePoint], gamma: ValueAssignment) -> CycMatrix:
    """A_Omega^gamma = (1/d^n) sum_{b in Omega} omega^{-gamma(b)} T_b.

    Requires Omega closed under inference and gamma noncontextual on it;
    Hermiticity then holds for every d and is verified exactly.
    """
    pts = sorted(set(points), key=lambda p: (p.az, p.ax))
    some = pts[0]
    d, n = some.d, some.n
    closed = closure_under_inference(pts)
    if closed != set(pts):
        raise ValueError("the support is not closed under inference")
    lookup = gamma.as_dict()
    if set(lookup) != set(pts):
        raise ValueError("assignment domain does not match the support")
    mat = projector_matrix(d, n, pts, lookup).scale(Fraction(len(pts), d ** n))
    if not mat.is_hermitian():
        raise ValueError("phase-point operator is not Hermitian: invalid assignment")
    return mat


def additive_assignments(d: int, n: int) -> list[dict[PhasePoint, int]]:
    """All d^{2n} additive functions gamma: E -> Z_d as explicit tables."""
    basis = [PhasePoint.unit_z(d, n, k) for k in range(n)] + \
            [PhasePoint.unit_x(d, n, k) for k in range(n)]
    out = []
    for values in itertools.product(range(d), repeat=2 * n):
        table = {}
        for point in phase_space(d, n):
            digits = list(point.az) + list(point.ax)
            table[point] = sum(v * c for v, c in zip(values, digits)) % d
        out.append(table)
    return out


def wigner_operator(d: int, n: int, gamma: dict[PhasePoint, int]) -> CycMatrix:
    """A_gamma = (1/d^n) sum_u omega^{gamma(u)} T_u (sign convention +gamma)."""
    neg = {p: (-v) % d for p, v in gamma.items()}
    return projector_matrix(d, n, list(neg), neg).scale(Fraction(len(neg), d ** n))


def pauli_coefficient(mat: CycMatrix, a: PhasePoint) -> CycNumber:
    """x_a = Tr(T_a^dag M), using the monomial structure of T_a^dag."""
    return pauli_mono(a).dagger().trace_with(mat)


def pauli_coefficients(mat: CycMatrix, d: int, n: int) -> dict[PhasePoint, CycNumber]:
    """x_a = Tr(T_a^dag M) for every label, so M = (1/d^n) sum_a x_a T_a."""
    return {a: pauli_coefficient(mat, a) for a in phase_space(d, n)}


def detect_cnc_form(mat: CycMatrix, d: int, n: int):
    """If mat = A_Omega^gamma for a cnc pair, return (support, assignment).

    Otherwise return None.  Detection is exact: Pauli coefficients must be
    roots of unity on an inference-closed support carrying a noncontextual
    assignment matching them.
    """
    support = []
    gamma = {}
    for a, x in pauli_coefficients(mat, d, n).items():
        if x.is_zero():
            continue
        for k in range(d):
            if x == omega_power(d, -k):
                support.append(a)
                gamma[a] = k
                break
        else:
            return None
    support_set = set(support)
    if closure_under_inference(support) != support_set:
        return None
    assignment = ValueAssignment.from_dict(d, gamma)
    from .stabilizer import assignment_is_valid
    if not assignment_is_valid(support, assignment):
        return None
    return frozenset(support), assignment


# ---------------------------------------------------------------------------
# the Pauli expectation bound


@dataclass(frozen=True)
class PauliBound:
    max_abs_squared: CycNumber
    argmax: PhasePoint

    def leq_one(self) -> bool:
        return (CycNumber.one() - self.max_abs_squared).sign() >= 0

    def value(self) -> float:
        return float(self.max_abs_squared) ** 0.5


def pauli_bound(mat: CycMatrix, d: int, n: int) -> PauliBound:
    """max_a |Tr(T_a X)| over all Pauli labels, compared exactly via |.|^2.

    Tr(T_a^dag X) ranges over the same modulus set as Tr(T_a X) since
    T_a^dag = T_{-a}.
    """
    best = None
    arg = None
    for a, x in pauli_coefficients(mat, d, n).items():
        m = x.abs_squared()
        if best is None or (m - best).sign() > 0:
            best, arg = m, a
    return PauliBound(best, arg)


# ---------------------------------------------------------------------------
# duality and dilation checks


def polar_dual_vertices(d: int, n: int, operators: Sequence[CycMatrix]) -> VertexSet:
    """Vertices of {X in Herm_1 : Tr(V_i X) >= 0} for the given operators."""
    hrep = hrep_from_operators(d, n, ((f"op{i}", m) for i, m in enumerate(operators)))
    return enumerate_vertices(hrep)


def _dilate(mat: CycMatrix, c: Fraction, d: int, n: int) -> CycMatrix:
    dim = d ** n
    mixed = CycMatrix.identity(dim, Fraction(1, dim))
    return mixed + (mat - mixed).scale(c)


def _require(ok: bool, message: str) -> None:
    # raised explicitly rather than asserted, so the check runs under python -O
    if not ok:
        raise AssertionError(message)


def duality_dilation_check(d: int, n: int, lambda_vertices: Optional[VertexSet] = None,
                           dilations: Sequence[Fraction] = (Fraction(1, 2), Fraction(1), Fraction(2))) -> dict:
    """Exact duality report for the stabilizer polytope and Wigner simplex.

    Verifies (i) double duality Lambda* = SP on computed vertex sets,
    (ii) the dilation identity (c.M)* = (1/c).M* on the simplex spanned by
    the additive phase-point operators, (iii) their trace orthogonality, and
    (iv) the inclusion-exclusion expansion over a line cover (n = 1).
    Raises AssertionError with a witness on any failure.
    """
    report: dict = {"d": d, "n": n}
    hrep = lambda_hrep(d, n)
    if lambda_vertices is None:
        lambda_vertices = enumerate_vertices(hrep)
    report["lambda_vertex_count"] = len(lambda_vertices)

    # (i) Lambda* should be exactly SP: its vertices are the stabilizer states
    dual = polar_dual_vertices(d, n, [v.matrix for v in lambda_vertices])
    sp_keys = {coords_key(operator_coords(p.matrix, d), d) for p in stabilizer_states(d, n)}
    dual_keys = {coords_key(v.coords, d) for v in dual}
    _require(dual_keys == sp_keys, "double dual of SP does not return SP")
    report["double_dual_ok"] = True
    report["sp_vertex_count"] = len(sp_keys)

    # (ii)+(iii) Wigner simplex: self-dual up to the d^n trace normalization
    gammas = additive_assignments(d, n)
    points = [wigner_operator(d, n, g) for g in gammas]
    dim = d ** n
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            expected = dim if i == j else 0
            _require((a @ b).trace() == expected, "phase-point trace orthogonality failed")
    report["simplex_orthogonality"] = f"Tr(A A') = {dim} * delta (d^n, not 1)"

    simplex_keys = {coords_key(operator_coords(p, d), d) for p in points}
    dual_simplex = polar_dual_vertices(d, n, points)
    _require({coords_key(v.coords, d) for v in dual_simplex} == simplex_keys,
             "Wigner simplex is not self-dual")
    report["simplex_self_dual"] = True

    for c in dilations:
        dilated = [_dilate(p, c, d, n) for p in points]
        dual_of_dilated = polar_dual_vertices(d, n, dilated)
        expected = {coords_key(operator_coords(_dilate(p, 1 / c, d, n), d), d) for p in points}
        _require({coords_key(v.coords, d) for v in dual_of_dilated} == expected,
                 f"dilation identity failed at c = {c}")
    report["dilation_ok"] = [str(c) for c in dilations]

    # (iv) inclusion-exclusion over a line cover (single qudit only)
    if n == 1:
        report["inclusion_exclusion_ok"] = _check_inclusion_exclusion(d)
    return report


def _check_inclusion_exclusion(d: int) -> bool:
    """A_gamma = (1/d) sum_{S subset cover} (-1)^{|S|+1} |<a_S>| P^{gamma}_{<a_S>}.

    The cover is the set of maximal cyclic subgroups of E; P here is the
    formal projector-shaped sum with +gamma phases, and the identity is a
    pure inclusion-exclusion statement about coefficients.
    """
    lines: dict[tuple, IsotropicSubgroup] = {}
    for a in phase_space(d, 1):
        if a.is_zero():
            continue
        g = IsotropicSubgroup.from_generators(d, 1, [a])
        lines.setdefault(g.key(), g)
    cover = [g for g in lines.values()
             if not any(set(g.elements) < set(h.elements) for h in lines.values())]
    gammas = additive_assignments(d, 1)
    for gamma in gammas:
        target = wigner_operator(d, 1, gamma)
        acc = CycMatrix.zeros(d, d)
        for size in range(1, len(cover) + 1):
            for subset in itertools.combinations(cover, size):
                inter = set(subset[0].elements)
                for g in subset[1:]:
                    inter &= set(g.elements)
                pts = sorted(inter, key=lambda p: (p.az, p.ax))
                neg = {p: (-gamma[p]) % d for p in pts}
                formal = projector_matrix(d, 1, pts, neg).scale(Fraction(len(pts), d))
                acc = acc + formal if size % 2 else acc - formal
        if acc != target:
            raise AssertionError("inclusion-exclusion expansion failed")
    return True


# ---------------------------------------------------------------------------
# vertex-set files


def save_vertex_file(path: str, vset: VertexSet):
    """Text format: header line, then one vertex per line (tab-separated)."""
    order = coord_order(vset.d)
    with open(path, "w") as fh:
        fh.write(f"# lambda-vertices d={vset.d} n={vset.n} count={len(vset)} order={order}\n")
        for v in vset.vertices:
            fh.write("\t".join(c.serialize() for c in v.coords) + "\n")


def save_facet_file(path: str, hrep: LambdaHRep):
    """Facet functionals in the same exact per-line coordinate format."""
    order = coord_order(hrep.d)
    with open(path, "w") as fh:
        fh.write(f"# lambda-facets d={hrep.d} n={hrep.n} count={hrep.facet_count()} order={order}\n")
        for label, vec in zip(hrep.labels, hrep.vectors):
            fh.write(label + "\t" + "\t".join(c.serialize() for c in vec) + "\n")


def _read_header(fh, magic: str) -> tuple[int, int, int]:
    """(d, n, count) from the header line "# <magic> d=.. n=.. count=.. ..."."""
    header = fh.readline().split()
    if header[:2] != ["#", magic]:
        raise ValueError(f"not a {magic} file")
    fields = dict(kv.split("=", 1) for kv in header[2:] if "=" in kv)
    missing = [k for k in ("d", "n", "count") if k not in fields]
    if missing:
        raise ValueError(f"{magic} file header lacks {', '.join(k + '=' for k in missing)}")
    return int(fields["d"]), int(fields["n"]), int(fields["count"])


def load_facet_file(path: str) -> LambdaHRep:
    with open(path) as fh:
        d, n, count = _read_header(fh, "lambda-facets")
        labels, ops, vecs = [], [], []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            toks = line.split("\t")
            labels.append(toks[0])
            coords = [CycNumber.parse(t) for t in toks[1:]]
            vecs.append(tuple(coords))
            # recover the operator: facet vectors double the off-diagonal parts
            dim = d ** n
            fixed = list(coords)
            for k in range(dim, dim * dim):
                fixed[k] = fixed[k] / 2
            ops.append(matrix_from_coords(fixed, d, n))
        if len(vecs) != count:
            raise ValueError(f"facet count mismatch: header {count}, body {len(vecs)}")
    return LambdaHRep(d, n, tuple(labels), tuple(ops), tuple(vecs))


def load_vertex_file(path: str) -> VertexSet:
    with open(path) as fh:
        d, n, count = _read_header(fh, "lambda-vertices")
        hrep = lambda_hrep(d, n)
        coord_list = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            coord_list.append([CycNumber.parse(tok) for tok in line.split("\t")])
        if len(coord_list) != count:
            raise ValueError(f"vertex count mismatch: header {count}, body {len(coord_list)}")
    return _vertices_from_coord_list(hrep, coord_list)
