"""Isotropic subgroups, noncontextual value assignments, stabilizer projectors.

A subgroup I of the phase space E is isotropic when the symplectic product
vanishes on it.  A value assignment r: I -> Z_d is noncontextual when
r(0) = 0 and r(a) + r(b) - r(a+b) = -beta(a,b) on every commuting pair; the
associated projector is

    Pi_I^r = (1/|I|) sum_{b in I} omega^{-r(b)} T_b.

The same machinery runs on general inference-closed subsets of E (cnc sets),
which are unions of isotropic subgroups rather than subgroups themselves.

Everything here is exact; consistency of an assignment is always verified on
the full domain rather than assumed, because for even d the beta phases can
make candidate assignments inconsistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .cyclotomic import CycNumber
from .linalg import CycMatrix
from .pauli import (CliffordElement, PhasePoint, beta_mod_d, omega_power,
                    pauli_mono, pauli_order, pauli_sum, phase_space,
                    symplectic_product)

__all__ = [
    "IsotropicSubgroup",
    "ValueAssignment",
    "StabilizerProjector",
    "enumerate_isotropics",
    "value_assignments",
    "noncontextual_assignments",
    "projector",
    "projector_matrix",
    "projector_trace",
    "group_projector_matrix",
    "projector_pair",
    "closure_under_inference",
    "closure_and_cnc",
    "projector_product",
    "ProjectorProduct",
    "coarse_grain",
    "clifford_transport",
]

ENUMERATION_GUARD = 4096  # largest |E| for exhaustive subgroup search


def _point_key(p: PhasePoint) -> tuple:
    return (p.az, p.ax)


def _close_under_addition(d: int, n: int, gens: Iterable[PhasePoint]) -> frozenset[PhasePoint]:
    zero = PhasePoint.zero(d, n)
    elements = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = e + g
                if s not in elements:
                    elements.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(elements)


@dataclass(frozen=True)
class IsotropicSubgroup:
    """A subgroup of E with vanishing symplectic product, explicit elements."""

    d: int
    n: int
    elements: tuple[PhasePoint, ...]
    generators: tuple[PhasePoint, ...]

    @staticmethod
    def from_generators(d: int, n: int, gens: Sequence[PhasePoint]) -> "IsotropicSubgroup":
        elems = _close_under_addition(d, n, gens)
        group = IsotropicSubgroup(d, n, tuple(sorted(elems, key=_point_key)), tuple(gens))
        group.validate()
        return group

    @staticmethod
    def trivial(d: int, n: int) -> "IsotropicSubgroup":
        return IsotropicSubgroup(d, n, (PhasePoint.zero(d, n),), ())

    def validate(self):
        for a, b in itertools.combinations_with_replacement(self.elements, 2):
            if symplectic_product(a, b) != 0:
                raise ValueError(f"not isotropic: [{a.serialize()}, {b.serialize()}] != 0")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p: PhasePoint) -> bool:
        return p in set(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def is_maximal(self) -> bool:
        return len(self.elements) == self.d ** self.n

    def key(self) -> tuple:
        return tuple(_point_key(p) for p in self.elements)

    def perp(self) -> frozenset[PhasePoint]:
        """All points of E commuting with every element of the subgroup."""
        return _perp_cached(self)

    def join(self, other_points: Iterable[PhasePoint]) -> "IsotropicSubgroup":
        gens = [p for p in self.elements if not p.is_zero()]
        gens += [p for p in other_points if not p.is_zero()]
        return IsotropicSubgroup.from_generators(self.d, self.n, gens)


@lru_cache(maxsize=None)
def _perp_cached(group: IsotropicSubgroup) -> frozenset[PhasePoint]:
    gens = group.generators or group.elements
    return frozenset(p for p in phase_space(group.d, group.n)
                     if all(symplectic_product(p, g) == 0 for g in gens))


@lru_cache(maxsize=None)
def enumerate_isotropics(d: int, n: int, only_maximal: bool = False) -> tuple[IsotropicSubgroup, ...]:
    """All isotropic subgroups of E, canonically ordered.

    Breadth-first closure over single-generator extensions with dedup on the
    sorted element list; this handles composite d, where maximal isotropic
    subgroups need not be cyclic (e.g. <2x, 2z> next to <x> for d = 4).
    """
    if d ** (2 * n) > ENUMERATION_GUARD:
        raise ValueError(f"|E| = {d ** (2 * n)} exceeds the enumeration guard {ENUMERATION_GUARD}")
    points = list(phase_space(d, n))
    trivial = IsotropicSubgroup.trivial(d, n)
    seen: dict[tuple, IsotropicSubgroup] = {trivial.key(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for group in frontier:
            member = set(group.elements)
            for p in points:
                if p in member or p.is_zero():
                    continue
                if all(symplectic_product(p, g) == 0 for g in group.elements):
                    cand = group.join([p])
                    k = cand.key()
                    if k not in seen:
                        seen[k] = cand
                        nxt.append(cand)
        frontier = nxt
    groups = sorted(seen.values(), key=lambda g: (len(g.elements), g.key()))
    if only_maximal:
        target = d ** n
        groups = [g for g in groups if len(g.elements) == target]
    return tuple(groups)


# ---------------------------------------------------------------------------
# value assignments


@dataclass(frozen=True)
class ValueAssignment:
    """A map r: domain -> Z_d satisfying the beta-twisted additivity."""

    d: int
    values: tuple[tuple[PhasePoint, int], ...]  # sorted by label

    @staticmethod
    def from_dict(d: int, mapping: dict[PhasePoint, int]) -> "ValueAssignment":
        items = tuple(sorted(((p, v % d) for p, v in mapping.items()), key=lambda it: _point_key(it[0])))
        return ValueAssignment(d, items)

    def as_dict(self) -> dict[PhasePoint, int]:
        return dict(self.values)

    def __call__(self, p: PhasePoint) -> int:
        for q, v in self.values:
            if q == p:
                return v
        raise KeyError(p)

    def key(self) -> tuple:
        return tuple((_point_key(p), v) for p, v in self.values)


def _consistent(d: int, assigned: dict[PhasePoint, int], point: PhasePoint, value: int) -> bool:
    """Check every pair condition that assigning point := value completes."""

    def val(p: PhasePoint) -> Optional[int]:
        return value if p == point else assigned.get(p)

    # pairs (u, point) and the self pair (point, point)
    for u in list(assigned) + [point]:
        if symplectic_product(u, point) != 0:
            continue
        vs = val(u + point)
        if vs is None:
            continue
        vu = val(u)
        if (vu + value - vs) % d != (-beta_mod_d(u, point)) % d:
            return False
    # pairs (u, w) with u + w == point that were waiting on this value
    for u, vu in assigned.items():
        w = point - u
        vw = assigned.get(w)
        if vw is None or symplectic_product(u, w) != 0:
            continue
        if (vu + vw - value) % d != (-beta_mod_d(u, w)) % d:
            return False
    return True


def noncontextual_assignments(points: Iterable[PhasePoint], d: int,
                              limit: Optional[int] = None) -> list[ValueAssignment]:
    """All noncontextual value assignments on an inference-closed point set.

    Depth-first search over the elements in canonical order with incremental
    pair-condition checking; detects inconsistency (empty result) rather than
    presuming solvability, which matters for even d.
    """
    pts = sorted(set(points), key=_point_key)
    zero = next((p for p in pts if p.is_zero()), None)
    if zero is None:
        raise ValueError("a closed set must contain 0")
    rest = [p for p in pts if not p.is_zero()]
    out: list[ValueAssignment] = []

    def dfs(idx: int, assigned: dict[PhasePoint, int]):
        if limit is not None and len(out) >= limit:
            return
        if idx == len(rest):
            out.append(ValueAssignment.from_dict(d, assigned))
            return
        p = rest[idx]
        for v in range(d):
            if _consistent(d, assigned, p, v):
                assigned[p] = v
                dfs(idx + 1, assigned)
                del assigned[p]
                if limit is not None and len(out) >= limit:
                    return

    dfs(0, {zero: 0})
    return out


def value_assignments(group: IsotropicSubgroup, limit: Optional[int] = None) -> list[ValueAssignment]:
    """All noncontextual value assignments on an isotropic subgroup."""
    return noncontextual_assignments(group.elements, group.d, limit=limit)


def assignment_is_valid(domain: Iterable[PhasePoint], r: ValueAssignment) -> bool:
    """Exhaustive check of the defining condition on all commuting pairs."""
    pts = list(domain)
    lookup = r.as_dict()
    d = r.d
    if lookup.get(PhasePoint.zero(pts[0].d, pts[0].n), 0) != 0:
        return False
    for a in pts:
        for b in pts:
            if symplectic_product(a, b) != 0:
                continue
            if (a + b) not in lookup:
                return False
            if (lookup[a] + lookup[b] - lookup[a + b]) % d != (-beta_mod_d(a, b)) % d:
                return False
    return True


# ---------------------------------------------------------------------------
# projectors


@dataclass(frozen=True)
class StabilizerProjector:
    """Pi_I^r together with its defining pair (I, r)."""

    group: IsotropicSubgroup
    assignment: ValueAssignment

    @property
    def d(self) -> int:
        return self.group.d

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def matrix(self) -> CycMatrix:
        return group_projector_matrix(self.group, self.assignment)

    def key(self) -> tuple:
        return (self.group.key(), self.assignment.key())


# id of each matrix group_projector_matrix built -> (matrix, group, r); the
# entry keeps the matrix alive, so its id is never reused.
_projector_pairs: dict[int, tuple[CycMatrix, "IsotropicSubgroup", "ValueAssignment"]] = {}


@lru_cache(maxsize=None)
def group_projector_matrix(group: IsotropicSubgroup, r: ValueAssignment) -> CycMatrix:
    """Pi_I^r for a subgroup and an assignment on it, built once per pair.

    CycMatrix is immutable, so every caller may share the returned matrix,
    and `projector_pair` maps it back to (group, r).
    """
    mat = projector_matrix(group.d, group.n, group.elements, r.as_dict())
    _projector_pairs[id(mat)] = (mat, group, r)
    return mat


def projector_pair(mat: CycMatrix) -> Optional[tuple[IsotropicSubgroup, ValueAssignment]]:
    """(group, r) if mat is the very matrix group_projector_matrix(group, r)
    returned, else None (an equal matrix built elsewhere included): lets a
    cache keyed on the pair serve the matrix."""
    entry = _projector_pairs.get(id(mat))
    return entry[1:] if entry is not None and entry[0] is mat else None


def projector_matrix(d: int, n: int, points: Iterable[PhasePoint],
                     values: dict[PhasePoint, int]) -> CycMatrix:
    """(1/|S|) sum_b omega^{-r(b)} T_b as a dense exact matrix."""
    pts = list(points)
    terms = ((b, omega_power(d, -values[b])) for b in pts)
    return pauli_sum(d, n, terms).scale(Fraction(1, len(pts)))


def projector_trace(points: Iterable[PhasePoint], values: dict[PhasePoint, int],
                    mat: CycMatrix) -> CycNumber:
    """Tr(M (1/|S|) sum_b omega^{-r(b)} T_b), without the dense projector."""
    pts = list(points)
    d = pts[0].d
    acc = CycNumber.zero(pauli_order(d))
    for b in pts:
        acc = acc + omega_power(d, -values[b]) * pauli_mono(b).trace_with(mat)
    return acc * Fraction(1, len(pts))


def projector(group: IsotropicSubgroup, r: ValueAssignment) -> StabilizerProjector:
    """Validated stabilizer projector for (I, r)."""
    if not assignment_is_valid(group.elements, r):
        raise ValueError("assignment violates the noncontextuality condition on the group")
    return StabilizerProjector(group, r)


# ---------------------------------------------------------------------------
# cnc sets


def closure_under_inference(points: Iterable[PhasePoint]) -> frozenset[PhasePoint]:
    """Smallest superset closed under a, b commuting -> a + b."""
    current = set(points)
    if not current:
        raise ValueError("need a nonempty subset of E")
    while True:
        added = set()
        lst = list(current)
        for i, a in enumerate(lst):
            for b in lst[i:]:
                if symplectic_product(a, b) == 0:
                    s = a + b
                    if s not in current:
                        added.add(s)
        if not added:
            return frozenset(current)
        current |= added


def closure_and_cnc(points: Iterable[PhasePoint],
                    limit: Optional[int] = None) -> tuple[frozenset[PhasePoint], bool, list[ValueAssignment]]:
    """(closure, is_cnc, assignments) for a subset of E.

    `limit` caps the number of returned assignments (None = all); the cnc
    flag is decided by the existence of at least one.
    """
    closed = closure_under_inference(points)
    some = next(iter(closed))
    assignments = noncontextual_assignments(closed, some.d, limit=limit)
    return closed, bool(assignments), assignments


# ---------------------------------------------------------------------------
# projector products (measurement update algebra)


@dataclass(frozen=True)
class ProjectorProduct:
    """Exact structure of Pi_I^r Pi_J^s Pi_I^r.

    With matching restrictions on I n J the product is
    (|J n I^perp| / |J|) Pi_G^{r*s} on G = I + (J n I^perp); otherwise it is
    zero.  `trace` is Tr(Pi_J^s Pi_I^r) in both cases.
    """

    trace: Fraction
    scale: Fraction
    result: Optional[StabilizerProjector]  # None encodes the zero operator

    def matrix(self, d: int, n: int) -> CycMatrix:
        if self.result is None:
            return CycMatrix.zeros(d ** n, d ** n)
        return self.result.matrix.scale(self.scale)


def star_assignment(group_i: IsotropicSubgroup, r: ValueAssignment,
                    part_j: Sequence[PhasePoint], s: ValueAssignment) -> tuple[IsotropicSubgroup, ValueAssignment]:
    """The unique assignment on I + span(part_j) extending r and s|_part_j.

    Built from all decompositions g = a + b with a in I, b in the J-part;
    raises if two decompositions disagree (uniqueness is checked, not
    assumed) or if the result is not noncontextual.
    """
    d = group_i.d
    combined = group_i.join(part_j)
    s_lookup = s.as_dict()
    r_lookup = r.as_dict()
    candidate: dict[PhasePoint, int] = {}
    for a in group_i.elements:
        for b in part_j:
            g = a + b
            v = (r_lookup[a] + s_lookup[b] + beta_mod_d(a, b)) % d
            if candidate.setdefault(g, v) != v:
                raise ValueError("inconsistent decompositions in star assignment")
    if set(candidate) != set(combined.elements):
        raise ValueError("star assignment does not cover I + (J n I^perp)")
    star = ValueAssignment.from_dict(d, candidate)
    if not assignment_is_valid(combined.elements, star):
        raise ValueError("star assignment violates noncontextuality")
    return combined, star


def projector_product(group_i: IsotropicSubgroup, r: ValueAssignment,
                      group_j: IsotropicSubgroup, s: ValueAssignment) -> ProjectorProduct:
    """Exact trace and structure of Pi_I^r Pi_J^s Pi_I^r."""
    d, n = group_i.d, group_i.n
    inter = set(group_i.elements) & set(group_j.elements)
    r_lookup, s_lookup = r.as_dict(), s.as_dict()
    if any(r_lookup[p] != s_lookup[p] for p in inter):
        return ProjectorProduct(Fraction(0), Fraction(0), None)
    perp = group_i.perp()
    j_part = sorted((p for p in group_j.elements if p in perp), key=_point_key)
    combined, star = star_assignment(group_i, r, j_part, s)
    trace = Fraction(len(inter) * d ** n, len(group_i) * len(group_j))
    scale = Fraction(len(j_part), len(group_j))
    return ProjectorProduct(trace, scale, StabilizerProjector(combined, star))


# ---------------------------------------------------------------------------
# coarse graining and Clifford transport


def coarse_grain(group: IsotropicSubgroup, r: ValueAssignment,
                 larger: IsotropicSubgroup) -> list[ValueAssignment]:
    """All extensions of r to a containing isotropic subgroup.

    The extensions resolve Pi_I^r as sum_{r'} Pi_{I'}^{r'}; an empty result
    signals an inconsistency and raises.
    """
    member = set(larger.elements)
    if not set(group.elements) <= member:
        raise ValueError("coarse graining needs I contained in I'")
    r_lookup = r.as_dict()
    out = [cand for cand in value_assignments(larger)
           if all(cand(p) == r_lookup[p] for p in group.elements)]
    if not out:
        raise ValueError("no extensions exist: inconsistent coarse graining")
    return out


def clifford_transport(u: CliffordElement, group: IsotropicSubgroup,
                       r: ValueAssignment) -> tuple[IsotropicSubgroup, ValueAssignment]:
    """(U.I, U.r) with U Pi_I^r U^dag = Pi_{U.I}^{U.r}."""
    mapping = {}
    for a in group.elements:
        phase, image = u.conjugate_label(a)
        mapping[image] = (r(a) - phase) % group.d
    gens = [u.conjugate_label(g)[1] for g in (group.generators or group.elements)]
    out_group = IsotropicSubgroup.from_generators(group.d, group.n, gens)
    if set(out_group.elements) != set(mapping):
        raise ValueError("symplectic image is not the transported subgroup")
    out_r = ValueAssignment.from_dict(group.d, mapping)
    if not assignment_is_valid(out_group.elements, out_r):
        raise ValueError("transported assignment violates noncontextuality")
    return out_group, out_r
