"""Stabilizer layer: subgroups, value assignments, projector algebra."""

import random
from fractions import Fraction

import pytest

from lambda_hvm.checks import random_traceless
from lambda_hvm.linalg import CycMatrix
from lambda_hvm.pauli import PhasePoint, clifford_generators, phase_space
from lambda_hvm.polytope import coord_order
from lambda_hvm.stabilizer import (IsotropicSubgroup, ValueAssignment,
                                   assignment_is_valid, clifford_transport,
                                   closure_and_cnc, closure_under_inference,
                                   coarse_grain, enumerate_isotropics,
                                   projector, projector_matrix,
                                   projector_product, projector_trace,
                                   value_assignments)
from tests_support import (random_full_matrix, reference_projector_matrix,
                           reference_projector_trace)


def all_pairs(d, n):
    return [(g, r) for g in enumerate_isotropics(d, n) for r in value_assignments(g)]


def test_enumeration_counts():
    assert len(enumerate_isotropics(2, 1, only_maximal=True)) == 3
    assert len(enumerate_isotropics(3, 1, only_maximal=True)) == 4
    assert len(enumerate_isotropics(2, 2, only_maximal=True)) == 15
    assert len(enumerate_isotropics(3, 2, only_maximal=True)) == 40


def test_enumeration_nonprime_includes_klein():
    x, z = PhasePoint.unit_x(4, 1), PhasePoint.unit_z(4, 1)
    maximal = enumerate_isotropics(4, 1, only_maximal=True)
    assert len(maximal) == 7
    keys = {g.key() for g in maximal}
    cyclic = IsotropicSubgroup.from_generators(4, 1, [x])
    klein = IsotropicSubgroup.from_generators(4, 1, [x.scale(2), z.scale(2)])
    assert cyclic.key() in keys and klein.key() in keys
    # orders agree but the group structures differ: <x> has an order-4
    # element, the Klein group does not
    assert len(cyclic) == len(klein) == 4
    assert any(not p.scale(2).is_zero() for p in cyclic.elements)
    assert all(p.scale(2).is_zero() for p in klein.elements)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_isotropics(9, 3)


def test_maximal_iff_order():
    from lambda_hvm.pauli import symplectic_product

    for d, n in ((2, 1), (3, 1), (4, 1)):
        points = list(phase_space(d, n))
        for g in enumerate_isotropics(d, n):
            member = set(g.elements)
            extendable = any(
                p not in member and all(symplectic_product(p, q) == 0 for q in g.elements)
                for p in points)
            assert (len(g) == d ** n) == (not extendable)


def test_value_assignment_counts_and_propagation():
    triv = IsotropicSubgroup.trivial(2, 1)
    assert len(value_assignments(triv)) == 1
    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    assert sorted(r(PhasePoint.unit_z(2, 1)) for r in value_assignments(z2)) == [0, 1]
    z3 = IsotropicSubgroup.from_generators(3, 1, [PhasePoint.unit_z(3, 1)])
    assigns = value_assignments(z3)
    assert len(assigns) == 3
    for r in assigns:
        z = PhasePoint.unit_z(3, 1)
        assert r(z.scale(2)) == (2 * r(z)) % 3
    # maximal subgroups of a prime-d system carry |I| assignments
    for g in enumerate_isotropics(3, 1, only_maximal=True):
        assert len(value_assignments(g)) == len(g) == 3


def test_value_assignments_even_d():
    x, z = PhasePoint.unit_x(4, 1), PhasePoint.unit_z(4, 1)
    klein = IsotropicSubgroup.from_generators(4, 1, [x.scale(2), z.scale(2)])
    assigns = value_assignments(klein)
    assert len(assigns) == 4
    assert sorted(r(x.scale(2)) for r in assigns) == [0, 0, 2, 2]
    for r in assigns:
        assert assignment_is_valid(klein.elements, r)


def test_projector_examples():
    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    r0 = next(r for r in value_assignments(z2) if r(PhasePoint.unit_z(2, 1)) == 0)
    assert projector(z2, r0).matrix == CycMatrix([[1, 0], [0, 0]])
    triv = IsotropicSubgroup.trivial(2, 1)
    assert projector(triv, value_assignments(triv)[0]).matrix == CycMatrix.identity(2)
    z3 = IsotropicSubgroup.from_generators(3, 1, [PhasePoint.unit_z(3, 1)])
    r1 = next(r for r in value_assignments(z3) if r(PhasePoint.unit_z(3, 1)) == 1)
    assert projector(z3, r1).matrix == CycMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_projector_rejects_invalid_assignment():
    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    bogus = ValueAssignment.from_dict(2, {PhasePoint.zero(2, 1): 1,
                                          PhasePoint.unit_z(2, 1): 0})
    with pytest.raises(ValueError):
        projector(z2, bogus)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1)])
def test_projector_algebra(d, n):
    for g, r in all_pairs(d, n):
        m = projector(g, r).matrix
        assert m @ m == m
        assert m.is_hermitian()
        assert m.trace() == Fraction(d ** n, len(g))


def test_closure_and_cnc():
    zero = PhasePoint.zero(2, 1)
    closed, is_cnc, assigns = closure_and_cnc([zero])
    assert closed == frozenset([zero]) and is_cnc and len(assigns) == 1

    e21 = list(phase_space(2, 1))
    closed, is_cnc, assigns = closure_and_cnc(e21)
    assert closed == frozenset(e21) and is_cnc and len(assigns) == 8

    e31 = list(phase_space(3, 1))
    closed, is_cnc, assigns = closure_and_cnc(e31)
    assert is_cnc and len(assigns) == 81
    # every assignment is additive along each line
    for gamma in assigns[:9]:
        for a in e31:
            for k in range(3):
                assert gamma(a.scale(k)) == (k * gamma(a)) % 3

    # the full two-qubit phase space admits no assignment (state-independent
    # contextuality), and the machinery must detect that rather than guess
    closed, is_cnc, assigns = closure_and_cnc(list(phase_space(2, 2)), limit=1)
    assert not is_cnc and assigns == []


def test_closure_fixpoint():
    x0 = PhasePoint.unit_x(3, 2, 0)
    z1 = PhasePoint.unit_z(3, 2, 1)
    closed = closure_under_inference([x0, z1])  # commuting pair spans a plane
    assert closure_under_inference(closed) == closed
    assert len(closed) == 9


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1)])
def test_projector_products_exhaustive(d, n):
    pairs = all_pairs(d, n)
    for gi, r in pairs:
        pi = projector(gi, r).matrix
        for gj, s in pairs:
            pj = projector(gj, s).matrix
            res = projector_product(gi, r, gj, s)
            assert (pj @ pi).trace() == res.trace
            assert pi @ pj @ pi == res.matrix(d, n)


@pytest.mark.parametrize("d,n,count", [(2, 2, 120), (3, 2, 120)])
def test_projector_products_random(d, n, count):
    rng = random.Random(11)
    pairs = all_pairs(d, n)
    for _ in range(count):
        gi, r = rng.choice(pairs)
        gj, s = rng.choice(pairs)
        res = projector_product(gi, r, gj, s)
        pi, pj = projector(gi, r).matrix, projector(gj, s).matrix
        assert (pj @ pi).trace() == res.trace
        assert pi @ pj @ pi == res.matrix(d, n)


def test_projector_product_trace_examples():
    # d=3: I=<z>, J=<x>, r=s=0 -> trace 1/3
    z3 = IsotropicSubgroup.from_generators(3, 1, [PhasePoint.unit_z(3, 1)])
    x3 = IsotropicSubgroup.from_generators(3, 1, [PhasePoint.unit_x(3, 1)])
    r = next(v for v in value_assignments(z3) if all(v(p) == 0 for p in z3.elements))
    s = next(v for v in value_assignments(x3) if all(v(p) == 0 for p in x3.elements))
    assert projector_product(z3, r, x3, s).trace == Fraction(1, 3)
    # same group, same assignment: idempotence
    res = projector_product(z3, r, z3, r)
    assert res.matrix(3, 1) == projector(z3, r).matrix
    # same group, different assignment: zero
    s2 = value_assignments(z3)[1]
    res2 = projector_product(z3, r, z3, s2)
    assert res2.trace == 0 and res2.result is None
    assert res2.matrix(3, 1).is_zero()


def test_coarse_grain():
    triv = IsotropicSubgroup.trivial(2, 1)
    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    exts = coarse_grain(triv, value_assignments(triv)[0], z2)
    assert len(exts) == 2
    total = projector(z2, exts[0]).matrix + projector(z2, exts[1]).matrix
    assert total == CycMatrix.identity(2)

    z3line = IsotropicSubgroup.from_generators(3, 1, [PhasePoint.unit_z(3, 1)])
    triv3 = IsotropicSubgroup.trivial(3, 1)
    exts3 = coarse_grain(triv3, value_assignments(triv3)[0], z3line)
    assert len(exts3) == 3
    acc = None
    for e in exts3:
        m = projector(z3line, e).matrix
        acc = m if acc is None else acc + m
    assert acc == CycMatrix.identity(3)

    z4 = PhasePoint.unit_z(4, 1)
    small = IsotropicSubgroup.from_generators(4, 1, [z4.scale(2)])
    big = IsotropicSubgroup.from_generators(4, 1, [z4])
    r0 = next(r for r in value_assignments(small) if r(z4.scale(2)) == 0)
    exts4 = coarse_grain(small, r0, big)
    assert sorted(e(z4) for e in exts4) == [0, 2]
    acc = None
    for e in exts4:
        m = projector(big, e).matrix
        acc = m if acc is None else acc + m
    assert acc == projector(small, r0).matrix


def test_coarse_grain_requires_nesting():
    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    x2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_x(2, 1)])
    with pytest.raises(ValueError):
        coarse_grain(z2, value_assignments(z2)[0], x2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clifford_transport(d):
    gens = clifford_generators(d, 1)
    for g in enumerate_isotropics(d, 1):
        for r in value_assignments(g):
            p = projector(g, r).matrix
            for u in gens:
                gi, ri = clifford_transport(u, g, r)
                assert u.apply(p) == projector(gi, ri).matrix


def test_transport_identity_and_hadamard():
    from lambda_hvm.linalg import CycMatrix as _CM
    from lambda_hvm.pauli import clifford_from_matrix
    from lambda_hvm.pauli import _fourier_matrix

    z2 = IsotropicSubgroup.from_generators(2, 1, [PhasePoint.unit_z(2, 1)])
    r0 = next(r for r in value_assignments(z2) if r(PhasePoint.unit_z(2, 1)) == 0)
    ident = clifford_from_matrix(2, 1, _CM.identity(2), "I")
    gi, ri = clifford_transport(ident, z2, r0)
    assert gi.key() == z2.key() and ri(PhasePoint.unit_z(2, 1)) == 0
    h = clifford_from_matrix(2, 1, _fourier_matrix(2), "H")
    gi, ri = clifford_transport(h, z2, r0)
    assert PhasePoint.unit_x(2, 1) in set(gi.elements)
    assert ri(PhasePoint.unit_x(2, 1)) == 0  # H|0> = |+>


def test_assignment_difference_linearity():
    rng = random.Random(2)
    for d in (3, 4):
        for g in enumerate_isotropics(d, 1, only_maximal=True):
            assigns = value_assignments(g)
            for _ in range(10):
                gamma, nu = rng.choice(assigns), rng.choice(assigns)
                a = rng.choice(list(g.elements))
                for k in range(d):
                    lhs = (gamma(a.scale(k)) - nu(a.scale(k))) % d
                    assert lhs == (k * (gamma(a) - nu(a))) % d


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_projector_matrix_and_trace_equal_the_reference_loops(d, n):
    """pauli_sum and trace_with against the loops they replaced, on every
    group and assignment; serialize() pins the declared order too."""
    rng = random.Random(30 * d + n)
    mats = [random_full_matrix(d ** n, coord_order(d), rng), random_traceless(d, n, rng)]
    for g, r in all_pairs(d, n):
        values = r.as_dict()
        assert projector_matrix(d, n, g.elements, values).serialize_rows() == \
            reference_projector_matrix(d, n, g.elements, values).serialize_rows()
        for m in mats:
            assert projector_trace(g.elements, values, m).serialize() == \
                reference_projector_trace(g.elements, r, m).serialize()
