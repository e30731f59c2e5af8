"""Pauli algebra: symplectic form, composition phases, Clifford conjugation."""

import itertools
import random
from fractions import Fraction

import pytest

from lambda_hvm.cyclotomic import CycNumber, zeta
from lambda_hvm.linalg import CycMatrix
from lambda_hvm.pauli import (CliffordElement, NotCliffordError, PhasePoint,
                              beta, beta_mod_d, clifford_from_matrix,
                              clifford_generators, compose_check, embed, omega_power,
                              pauli_matrix, pauli_mono, pauli_order, pauli_sum,
                              phase_space, symplectic_product)
from lambda_hvm.pauli import (_fourier_matrix, _multiplier_matrix, _mu_step,
                              _phase_gate_matrix, _sum_gate_matrix)
from lambda_hvm.polytope import coord_order
from lambda_hvm.stabilizer import enumerate_isotropics, value_assignments
from tests_support import (random_full_matrix, reference_clifford_tables,
                           reference_embed_single, reference_embed_two)

SHARED_SYSTEMS = [(2, 1), (3, 1), (4, 1), (2, 2)]


def mu_exponent(d, omega_exp):
    k = Fraction(omega_exp) * _mu_step(d)
    assert k.denominator == 1
    return int(k) % pauli_order(d)


@pytest.mark.parametrize("d", range(2, 8))
def test_mu_step_gives_omega(d):
    # mu generates the roots of unity of order pauli_order(d), and mu^t is
    # omega = e^{2 pi i / d}
    assert zeta(pauli_order(d), _mu_step(d)) == zeta(d, 1)
    assert omega_power(d, 1) == zeta(d, 1)


def test_symplectic_product_examples():
    z, x = PhasePoint.unit_z(2, 1), PhasePoint.unit_x(2, 1)
    assert symplectic_product(z, x) == 1
    for a in phase_space(3, 1):
        assert symplectic_product(a, a) == 0
    a = PhasePoint(3, 2, (1, 0), (0, 0))
    b = PhasePoint(3, 2, (0, 0), (0, 1))
    assert symplectic_product(a, b) == 0


def test_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        symplectic_product(PhasePoint.unit_z(2, 1), PhasePoint.unit_z(2, 2))


def test_beta_examples():
    z2, x2 = PhasePoint.unit_z(2, 1), PhasePoint.unit_x(2, 1)
    assert beta(z2, x2) == Fraction(-1, 2)
    z3, x3 = PhasePoint.unit_z(3, 1), PhasePoint.unit_x(3, 1)
    # matrix oracle: Z X = omega^{-beta} T_{z+x} forces beta = 1 mod 3
    k = (pauli_mono(z3) @ pauli_mono(x3)).equals_up_to_mu(pauli_mono(z3 + x3))
    assert k == mu_exponent(3, -beta(z3, x3))
    assert beta_mod_d(z3, x3) == 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_beta_vanishes_on_lines(d):
    for a in phase_space(d, 1):
        for k in range(d):
            assert beta_mod_d(a, a.scale(k)) == 0


def test_beta_on_lines_even_composite():
    # even d >= 4: the value can be d/2 on wrapping pairs, never anything else
    hits = 0
    for a in phase_space(4, 1):
        for k in range(4):
            v = beta_mod_d(a, a.scale(k))
            assert v in (0, 2)
            hits += v == 2
    assert hits > 0  # the shift really occurs


def test_pauli_matrix_examples():
    i = zeta(4)
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    assert y == CycMatrix([[0, -i], [i, 0]])
    assert pauli_matrix(PhasePoint.zero(3, 1)) == CycMatrix.identity(3)
    w = zeta(3)
    assert pauli_matrix(PhasePoint.unit_z(3, 1)) == \
        CycMatrix([[1, 0, 0], [0, w, 0], [0, 0, w * w]])


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_composition_commutator_power_exhaustive(d, n):
    points = list(phase_space(d, n))
    for a in points:
        assert pauli_mono(a).power(d).is_identity()
    for a, b in itertools.product(points, points):
        e, c = compose_check(a, b)
        k = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_mu(pauli_mono(c))
        assert k is not None and k == mu_exponent(d, e)
        comm = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_omega(
            pauli_mono(b) @ pauli_mono(a))
        assert comm == symplectic_product(a, b)


def test_compose_check_special_cases():
    d = 2
    z, x = PhasePoint.unit_z(d, 1), PhasePoint.unit_x(d, 1)
    e, c = compose_check(z, x)
    assert e == Fraction(1, 2) and c == PhasePoint(2, 1, (1,), (1,))
    a = PhasePoint(3, 1, (2,), (1,))
    e0, c0 = compose_check(a, PhasePoint.zero(3, 1))
    assert e0 == 0 and c0 == a
    # T_a T_{-a} = omega^{-beta(a,-a)} 1: exactly 1 for d in (2,3); for
    # composite even d the wraparound can contribute a -1 (beta = d/2)
    for d in (2, 3):
        for a in phase_space(d, 1):
            assert (pauli_mono(a) @ pauli_mono(a.scale(d - 1))).is_identity()
    ident4 = pauli_mono(PhasePoint.zero(4, 1))
    for a in phase_space(4, 1):
        prod = pauli_mono(a) @ pauli_mono(a.scale(3))
        k = prod.equals_up_to_mu(ident4)
        assert k is not None and k == mu_exponent(4, -beta(a, a.scale(3)))


def test_trace_orthogonality():
    for d, n in ((2, 1), (3, 1)):
        pts = list(phase_space(d, n))
        for a in pts:
            for b in pts:
                tr = (pauli_mono(a).dagger() @ pauli_mono(b)).trace()
                assert tr == (d ** n if a == b else 0)


def test_phase_point_serialization():
    p = PhasePoint(3, 2, (1, 2), (0, 1))
    assert PhasePoint.parse(p.serialize(), 3) == p
    with pytest.raises(ValueError):
        PhasePoint.parse("Z:(1)|Q:(0)", 2)


def test_clifford_conjugation_examples():
    z, x = PhasePoint.unit_z(2, 1), PhasePoint.unit_x(2, 1)
    h = clifford_from_matrix(2, 1, _fourier_matrix(2), "H")
    assert h.conjugate_label(z) == (0, x)
    ident = clifford_from_matrix(2, 1, CycMatrix.identity(2), "I")
    for a in phase_space(2, 1):
        assert ident.conjugate_label(a) == (0, a)
    f3 = clifford_from_matrix(3, 1, _fourier_matrix(3), "F")
    phase, image = f3.conjugate_label(PhasePoint.unit_z(3, 1))
    x3 = PhasePoint.unit_x(3, 1)
    assert image in (x3, -x3)
    # the full conjugation table matches dense matrix algebra by construction;
    # verify one instance explicitly against an independent product
    t_img = pauli_matrix(image)
    lhs = f3.unitary @ pauli_matrix(PhasePoint.unit_z(3, 1)) @ f3.unitary.dagger()
    omega = zeta(3)
    assert lhs == t_img.scale(omega ** phase)


def test_non_clifford_rejected():
    t_gate = CycMatrix([[1, 0], [0, zeta(8)]])
    with pytest.raises(NotCliffordError):
        CliffordElement(2, 1, t_gate, name="T")


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_generators_validated(d, n):
    rng = random.Random(0)
    points = list(phase_space(d, n))
    gens = clifford_generators(d, n)
    assert gens
    for g in gens:
        images = {(p.az, p.ax) for p in g.symplectic_map.values()}
        assert len(images) == len(points)
        assert g.phase_map[PhasePoint.zero(d, n)] == 0
        for _ in range(40):
            a, b = rng.choice(points), rng.choice(points)
            assert symplectic_product(g.symplectic_map[a], g.symplectic_map[b]) == \
                symplectic_product(a, b)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)])
def test_clifford_tables_equal_the_matching_search(d, n):
    """The Pauli-coefficient readout gives the phase and symplectic maps the
    support-and-ratio search gave, for every generator, its product with the
    next generator and its inverse."""
    gens = clifford_generators(d, n)
    for g, nxt in zip(gens, gens[1:] + gens[:1]):
        for elem in (g, g.compose(nxt), g.inverse()):
            phases, images = reference_clifford_tables(d, n, elem.unitary, elem.name)
            assert elem.phase_map == phases, elem.name
            assert elem.symplectic_map == images, elem.name


@pytest.mark.parametrize("d,gate", [
    (2, CycMatrix([[1, 0], [0, zeta(8)]])),
    (3, CycMatrix([[1, 0, 0], [0, zeta(9), 0], [0, 0, 1]])),
])
def test_non_cliffords_raise_the_matching_search_message(d, gate):
    with pytest.raises(NotCliffordError) as want:
        reference_clifford_tables(d, 1, gate, "G")
    with pytest.raises(NotCliffordError) as got:
        CliffordElement(d, 1, gate, name="G")
    assert str(got.value) == str(want.value)
    assert "is not a Pauli" in str(got.value)


@pytest.mark.parametrize("d", [2, 3])
def test_embed_equals_the_single_and_two_site_embeddings(d):
    """embed places the gates of clifford_generators(d, 2) as the separate
    single- and two-site loops did, entry for entry."""
    n = 2
    singles = [_fourier_matrix(d), _phase_gate_matrix(d),
               pauli_matrix(PhasePoint.unit_x(d, 1)), pauli_matrix(PhasePoint.unit_z(d, 1))]
    singles += [_multiplier_matrix(d, u) for u in range(2, d)]
    for gate in singles:
        for site in range(n):
            assert embed(gate, d, n, [site]).serialize_rows() == \
                reference_embed_single(gate, d, n, site).serialize_rows()
    sum_gate = _sum_gate_matrix(d)
    for sites in ([0, 1], [1, 0]):
        assert embed(sum_gate, d, n, sites).serialize_rows() == \
            reference_embed_two(sum_gate, d, n, *sites).serialize_rows()


def test_clifford_composition_consistency():
    gens = clifford_generators(2, 1)
    h = next(g for g in gens if g.name == "F0")
    s = next(g for g in gens if g.name == "S0")
    hs = h.compose(s)
    for a in phase_space(2, 1):
        ph_s, im_s = s.conjugate_label(a)
        ph_h, im_h = h.conjugate_label(im_s)
        ph, im = hs.conjugate_label(a)
        assert im == im_h and ph == (ph_s + ph_h) % 2


@pytest.mark.parametrize("d,n", SHARED_SYSTEMS)
def test_trace_with_equals_the_dense_trace(d, n):
    """Tr(T_b M) and Tr(T_b^dag M) from the monomial form, against dense
    products, for every label; serialize() pins the declared order too."""
    mat = random_full_matrix(d ** n, coord_order(d), random.Random(10 * d + n))
    for b in phase_space(d, n):
        mono, dense = pauli_mono(b), pauli_matrix(b)
        assert mono.trace_with(mat).serialize() == (dense @ mat).trace().serialize()
        assert mono.dagger().trace_with(mat).serialize() == \
            (dense.dagger() @ mat).trace().serialize()


def _dense_sum(terms):
    acc = None
    for b, c in terms:
        term = pauli_matrix(b).scale(c)
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("d,n", SHARED_SYSTEMS)
def test_pauli_sum_equals_the_dense_sum(d, n):
    """Every projector-shaped sum over a group and assignment, and random
    coefficients on random label sets.  The coefficients lie in Q(mu), so
    both sides declare every entry at mu's order and serialize() compares."""
    for group in enumerate_isotropics(d, n):
        for r in value_assignments(group):
            terms = [(b, omega_power(d, -r(b))) for b in group.elements]
            assert pauli_sum(d, n, terms).serialize_rows() == _dense_sum(terms).serialize_rows()
    rng = random.Random(20 * d + n)
    order = pauli_order(d)
    labels = list(phase_space(d, n))
    for _ in range(10):
        terms = [(b, CycNumber.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), order)
                  + zeta(order) * rng.randint(-2, 2))
                 for b in rng.sample(labels, rng.randint(1, len(labels)))]
        assert pauli_sum(d, n, terms).serialize_rows() == _dense_sum(terms).serialize_rows()


def test_omega_power_takes_half_integers_only_at_even_d():
    assert omega_power(4, Fraction(1, 2)) == zeta(8)
    assert omega_power(3, 2) == zeta(3, 2)
    assert omega_power(2, Fraction(-3, 1)) == zeta(4, 2)
    with pytest.raises(ValueError):
        omega_power(3, Fraction(1, 2))
