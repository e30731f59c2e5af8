"""Polytope layer: enumeration, certification, duality, phase points."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_hvm import polytope
from lambda_hvm.cyclotomic import CycNumber, zeta
from lambda_hvm.linalg import CycMatrix
from lambda_hvm.pauli import (PhasePoint, clifford_generators, pauli_matrix,
                              phase_space)
from lambda_hvm.polytope import (VertexCertificate, VertexRejection,
                                 additive_assignments, certify_vertex,
                                 cnc_phase_point, coords_key,
                                 detect_cnc_form, duality_dilation_check,
                                 enumerate_vertices, lambda_hrep,
                                 load_facet_file, load_vertex_file,
                                 matrix_from_coords,
                                 membership, operator_coords, pauli_bound,
                                 save_vertex_file, stabilizer_states,
                                 wigner_operator)
from lambda_hvm.stabilizer import (closure_and_cnc, enumerate_isotropics,
                                   projector, value_assignments)
from tests_support import reference_certify_vertex, reference_enumerate_brute_force


@pytest.fixture(scope="module")
def v21():
    return enumerate_vertices(lambda_hrep(2, 1))


@pytest.fixture(scope="module")
def v31():
    return enumerate_vertices(lambda_hrep(3, 1))


@pytest.fixture(scope="module")
def v41():
    return enumerate_vertices(lambda_hrep(4, 1))


# sha256 of the vertex files written from the default enumeration: rational
# coordinates are declared at order 1 at d=2, every coordinate at order 12 at
# d=3 (brute force writes the same d=3 bytes).
VERTEX_FILE_SHA256 = {
    2: "84d54e5cdd483ee5524ad61cd8c1cfd1e727e34ade57c4a1597183c9b96f49a9",
    3: "236e0ff4c4acadd1cd80e00a940113fd1cefd7047135611b2c8570adf2f3a363",
}


def test_stabilizer_state_counts():
    assert len(stabilizer_states(2, 1)) == 6
    assert len(stabilizer_states(3, 1)) == 12
    assert len(stabilizer_states(2, 2)) == 60


def test_hrep_shapes_and_interior():
    h = lambda_hrep(2, 1)
    assert h.facet_count() == 6 and h.dim == 4
    mixed = CycMatrix.identity(2, Fraction(1, 2))
    ok, active, violated = membership(operator_coords(mixed, 2), h)
    assert ok and not active and not violated
    h3 = lambda_hrep(3, 1)
    assert h3.facet_count() == 12 and h3.dim == 9


def test_dimension_guard():
    with pytest.raises(ValueError):
        lambda_hrep(1, 1)


def test_coords_round_trip():
    rho = pauli_matrix(PhasePoint(3, 1, (1,), (2,)))
    herm = (rho + rho.dagger()).scale(Fraction(1, 2)) + CycMatrix.identity(3, Fraction(1, 3))
    coords = operator_coords(herm, 3)
    assert matrix_from_coords(coords, 3, 1) == herm


def test_single_qubit_vertices_are_the_cube(v21):
    assert len(v21) == 8
    x = pauli_matrix(PhasePoint.unit_x(2, 1))
    z = pauli_matrix(PhasePoint.unit_z(2, 1))
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    ident = CycMatrix.identity(2)
    expected = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                m = (ident + x.scale(sx) + y.scale(sy) + z.scale(sz)).scale(Fraction(1, 2))
                expected.add(coords_key(operator_coords(m, 2), 2))
    assert {coords_key(v.coords, 2) for v in v21} == expected
    for v in v21:
        assert v.certificate.rank == 3
        assert len(v.certificate.active) >= 3


def test_qutrit_vertices_are_exactly_the_phase_points(v31):
    assert len(v31) == 81
    e31 = list(phase_space(3, 1))
    _, _, gammas = closure_and_cnc(e31)
    assert len(gammas) == 81
    keys = set()
    for gamma in gammas:
        a_op = cnc_phase_point(e31, gamma)
        idx = v31.lookup_matrix(a_op)
        assert idx is not None
        keys.add(idx)
    assert keys == set(range(81))


def test_certification_examples(v21):
    h = lambda_hrep(2, 1)
    mixed = CycMatrix.identity(2, Fraction(1, 2))
    rej = certify_vertex(operator_coords(mixed, 2), h)
    assert isinstance(rej, VertexRejection) and "interior" in rej.reason
    # a boundary non-vertex: |0><0| lies on an edge of the cube
    zero_state = CycMatrix([[1, 0], [0, 0]])
    rej2 = certify_vertex(operator_coords(zero_state, 2), h)
    assert isinstance(rej2, VertexRejection) and rej2.rank < 3
    # off-polytope point is rejected with a violated facet
    bad = CycMatrix([[Fraction(3, 2), 0], [0, Fraction(-1, 2)]])
    rej3 = certify_vertex(operator_coords(bad, 2), h)
    assert isinstance(rej3, VertexRejection) and rej3.violated


@pytest.mark.parametrize("d", [2, 3, 4])
def test_certificates_equal_the_exact_rank_reference(request, d):
    vset = request.getfixturevalue(f"v{d}1")
    hrep = lambda_hrep(d, 1)
    for v in vset:
        cert = certify_vertex(v.coords, hrep)
        assert isinstance(cert, VertexCertificate) and cert.rank == hrep.dim - 1
        assert cert == reference_certify_vertex(v.coords, hrep)


def edge_midpoint(vset):
    """Midpoint of the first pair of vertices sharing the most active facets."""
    a, b = max(itertools.combinations(vset, 2),
               key=lambda ab: len(set(ab[0].certificate.active) & set(ab[1].certificate.active)))
    return [(x + y) * Fraction(1, 2) for x, y in zip(a.coords, b.coords)]


# At d = 4 the midpoint has 20 active facets, more than D^2 - 1 = 15, at
# rank 14, so its rank mod p is not short for want of rows.
@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_deficient_point_falls_back_to_the_exact_rank(request, d):
    hrep = lambda_hrep(d, 1)
    coords = edge_midpoint(request.getfixturevalue(f"v{d}1"))
    start = dict(polytope.stats)
    rej = certify_vertex(coords, hrep)
    assert polytope.stats == {"modp": start["modp"], "exact": start["exact"] + 1}
    assert rej == reference_certify_vertex(coords, hrep)
    assert isinstance(rej, VertexRejection) and 0 < rej.rank < hrep.dim - 1
    if d == 2:
        assert rej == VertexRejection("active set rank 2 < 3", (), 2)


def test_certification_stats_count_each_path():
    start = dict(polytope.stats)
    enumerate_vertices(lambda_hrep(3, 1))
    assert polytope.stats == {"modp": start["modp"] + 81, "exact": start["exact"]}


@pytest.mark.parametrize("order", [1, 4, 8, 12, 24])
def test_modp_field_is_a_prime_with_a_primitive_root(order):
    p, z = polytope._modp_field(order)
    assert p > 2 ** 61 and (p - 1) % order == 0 and polytope._is_prime(p)
    assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7))
    assert pow(z, order, p) == 1
    assert all(pow(z, order // q, p) != 1 for q in (2, 3) if order % q == 0)


def test_is_prime_examples():
    small = [m for m in range(2, 3000) if all(m % f for f in range(2, int(m ** 0.5) + 1))]
    assert [m for m in range(3000) if polytope._is_prime(m)] == small
    assert polytope._is_prime(2 ** 61 - 1)
    # a strong pseudoprime to the bases 2, 3, 5 and 7, and a Carmichael number
    assert not polytope._is_prime(3215031751) and not polytope._is_prime(561)


@st.composite
def order_12_numbers(draw):
    nums = tuple(draw(st.integers(-9, 9)) for _ in range(4))
    return CycNumber(12, nums, draw(st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(order_12_numbers(), order_12_numbers(), st.sampled_from([1, 3, 4, 6, 12]))
def test_reduction_mod_p_is_a_ring_map(x, y, small):
    # y is declared at a divisor of 12 when it lies there, as entries may be
    y = y.demoted(small) or y
    p, images = polytope._rows_mod_p([[x, y, x * y, x + y]])
    ix, iy, ixy, isum = images[0]
    assert ixy == ix * iy % p and isum == (ix + iy) % p


def test_modp_rank_is_undecided_when_p_divides_a_denominator():
    p, _ = polytope._modp_field(12)
    bad = CycNumber.from_rational(Fraction(1, p), 12)
    q, images = polytope._rows_mod_p([[zeta(12), CycNumber.one(12)], [zeta(12), bad]])
    assert q == p and images[0] is not None and images[1] is None
    assert polytope._rank_mod_p(images[:1], p, 2) == 1
    assert polytope._rank_mod_p(images, p, 2) is None


def test_certified_vertices_clifford_closed(v21, v31):
    for vset, (d, n) in ((v21, (2, 1)), (v31, (3, 1))):
        for gate in clifford_generators(d, n):
            images = set()
            for v in vset:
                idx = vset.lookup_matrix(gate.apply(v.matrix))
                assert idx is not None
                images.add(idx)
            assert images == set(range(len(vset)))


def test_cnc_phase_point_examples():
    zero_set = [PhasePoint.zero(2, 1)]
    _, _, assigns = closure_and_cnc(zero_set)
    assert cnc_phase_point(zero_set, assigns[0]) == CycMatrix.identity(2, Fraction(1, 2))

    e21 = list(phase_space(2, 1))
    _, _, gammas = closure_and_cnc(e21)
    gamma0 = next(g for g in gammas
                  if all(g(p) == 0 for p in e21 if not p.is_zero()))
    a_op = cnc_phase_point(e21, gamma0)
    x = pauli_matrix(PhasePoint.unit_x(2, 1))
    z = pauli_matrix(PhasePoint.unit_z(2, 1))
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    assert a_op == (CycMatrix.identity(2) + x + y + z).scale(Fraction(1, 2))

    # qutrit: Born traces of phase points against stabilizer projectors are 0/1
    e31 = list(phase_space(3, 1))
    _, _, g3 = closure_and_cnc(e31)
    a3 = cnc_phase_point(e31, g3[0])
    for group in enumerate_isotropics(3, 1, only_maximal=True):
        for r in value_assignments(group):
            t = (projector(group, r).matrix @ a3).trace()
            match = all(r(p) == g3[0](p) for p in group.elements)
            assert t == (1 if match else 0)


def test_cnc_phase_point_validation():
    e21 = list(phase_space(2, 1))
    _, _, gammas = closure_and_cnc(e21)
    with pytest.raises(ValueError):
        # support not closed under inference
        cnc_phase_point([p for p in e21 if not p.is_zero()], gammas[0])


def test_detect_cnc_form(v21):
    for v in v21:
        det = detect_cnc_form(v.matrix, 2, 1)
        assert det is not None
        support, gamma = det
        assert len(support) == 4
    assert detect_cnc_form(CycMatrix([[Fraction(3, 4), 0], [0, Fraction(1, 4)]]), 2, 1) is None


def test_pauli_bound(v21, v31):
    mixed = CycMatrix.identity(2, Fraction(1, 2))
    b = pauli_bound(mixed, 2, 1)
    assert b.max_abs_squared == 1 and b.argmax.is_zero()
    for v in v21:
        assert pauli_bound(v.matrix, 2, 1).max_abs_squared == 1
    for v in list(v31)[:12]:
        assert pauli_bound(v.matrix, 3, 1).leq_one()
    # the bound can fail away from the polytope vertices
    off = CycMatrix([[Fraction(3, 2), 0], [0, Fraction(-1, 2)]])
    bound = pauli_bound(off, 2, 1)
    assert bound.max_abs_squared == 4  # |Tr(Z X)| = 2 for T_z
    assert not bound.leq_one()


def test_density_matrices_inside():
    rng = random.Random(4)
    h = lambda_hrep(3, 1)
    i_unit = zeta(4)
    for _ in range(6):
        rows = [[CycNumber.from_rational(Fraction(rng.randint(-2, 2)))
                 + i_unit * Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        m = CycMatrix(rows)
        g = m.dagger() @ m
        tr = g.trace()
        if tr.is_zero():
            continue
        rho = g.scale(tr.inverse())
        ok, _, _ = membership(operator_coords(rho, 3), h)
        assert ok


def test_wigner_orthogonality_and_self_duality():
    # the d^n normalization, not the literal delta
    for d in (2, 3):
        ops = [wigner_operator(d, 1, g) for g in additive_assignments(d, 1)]
        assert len(ops) == d ** 2
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert (a @ b).trace() == (d if i == j else 0)


@pytest.mark.parametrize("d", [2, 3])
def test_duality_dilation_report(d):
    report = duality_dilation_check(d, 1)
    assert report["double_dual_ok"]
    assert report["simplex_self_dual"]
    assert report["dilation_ok"] == ["1/2", "1", "2"]
    assert report["inclusion_exclusion_ok"]


@pytest.mark.parametrize("d", [2, 3])
def test_brute_force_and_dd_give_the_same_vertex_list(d):
    hrep = lambda_hrep(d, 1)
    brute = reference_enumerate_brute_force(hrep)
    dd = enumerate_vertices(hrep)
    assert [coords_key(v.coords, d) for v in brute] == [coords_key(v.coords, d) for v in dd]
    assert all(isinstance(v.certificate, VertexCertificate) for v in (*brute, *dd))


def test_vertex_file_bytes_are_pinned(tmp_path, v21, v31):
    for d, vset in ((2, v21), (3, v31)):
        path = tmp_path / f"v{d}1.txt"
        save_vertex_file(str(path), vset)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == VERTEX_FILE_SHA256[d]


def test_vertex_file_round_trip(tmp_path, v21):
    path = tmp_path / "v21.txt"
    save_vertex_file(str(path), v21)
    loaded = load_vertex_file(str(path))
    assert len(loaded) == len(v21)
    assert {coords_key(v.coords, 2) for v in loaded} == \
        {coords_key(v.coords, 2) for v in v21}
    # bit-exact: saving again produces the identical file
    path2 = tmp_path / "v21b.txt"
    save_vertex_file(str(path2), loaded)
    assert path.read_text() == path2.read_text()


@pytest.mark.parametrize("load,header,missing", [
    (load_vertex_file, "# lambda-vertices n=1 count=8", "d="),
    (load_vertex_file, "# lambda-vertices d=2 count=8 order=4", "n="),
    (load_facet_file, "# lambda-facets d=2 n=1 order=4", "count="),
])
def test_a_header_without_a_field_is_a_value_error(tmp_path, load, header, missing):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=f"header lacks {missing}$"):
        load(str(path))


def test_facet_file_round_trip(tmp_path):
    from lambda_hvm.polytope import save_facet_file

    hrep = lambda_hrep(3, 1)
    path = tmp_path / "f31.txt"
    save_facet_file(str(path), hrep)
    loaded = load_facet_file(str(path))
    assert loaded.facet_count() == hrep.facet_count()
    assert loaded.vectors == hrep.vectors
    assert all(a == b for a, b in zip(loaded.operators, hrep.operators))
    path2 = tmp_path / "f31b.txt"
    save_facet_file(str(path2), loaded)
    assert path.read_text() == path2.read_text()


def test_matrix_serialization_round_trip():
    m = pauli_matrix(PhasePoint(3, 1, (1,), (2,)))
    rows = m.serialize_rows()
    assert CycMatrix.from_serialized(rows) == m
