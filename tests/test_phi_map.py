"""The embedding X -> U (X tensor Pi_J^r) U^dag between polytopes."""

import random

import pytest

from lambda_hvm.checks import random_traceless
from lambda_hvm.hvm import (PhiMapSpec, cnc_form_image, lem_coefficient_trace,
                            lem_trace_reduction, phi_apply)
from lambda_hvm.pauli import PhasePoint, clifford_generators, phase_space
from lambda_hvm.polytope import (VertexCertificate, certify_vertex,
                                 enumerate_vertices, lambda_hrep, membership,
                                 operator_coords)
from lambda_hvm.stabilizer import (closure_and_cnc, enumerate_isotropics,
                                   value_assignments)


def make_spec(d, m, n, j_index=0, r_index=0, u=None):
    j = enumerate_isotropics(d, n - m, only_maximal=True)[j_index]
    r = value_assignments(j)[r_index]
    return PhiMapSpec(m, n, j, r, u)


def test_spec_validation():
    j = enumerate_isotropics(2, 1, only_maximal=True)[0]
    r = value_assignments(j)[0]
    with pytest.raises(ValueError):
        PhiMapSpec(2, 2, j, r)  # m must be < n
    from lambda_hvm.stabilizer import IsotropicSubgroup
    small = IsotropicSubgroup.trivial(2, 1)
    with pytest.raises(ValueError):
        PhiMapSpec(1, 2, small, value_assignments(small)[0])  # J not maximal


def test_phi_preserves_trace_and_hermiticity():
    spec = make_spec(2, 1, 2)
    v21 = enumerate_vertices(lambda_hrep(2, 1))
    for v in v21:
        img = phi_apply(v.matrix, spec)
        assert img.trace() == 1
        assert img.is_hermitian()


def test_phi_with_clifford_conjugation():
    gens = clifford_generators(2, 2)
    u = next(g for g in gens if g.name == "SUM01")
    spec = make_spec(2, 1, 2, u=u)
    v21 = enumerate_vertices(lambda_hrep(2, 1))
    img = phi_apply(v21[0].matrix, spec)
    assert img.trace() == 1 and img.is_hermitian()
    # image is the conjugate of the identity-embedding image
    plain = phi_apply(v21[0].matrix, make_spec(2, 1, 2))
    assert img == u.apply(plain)


def test_images_inside_lambda():
    for d in (2, 3):
        spec = make_spec(d, 1, 2, r_index=1 if d == 2 else 2)
        hrep_n = lambda_hrep(d, 2)
        vm = enumerate_vertices(lambda_hrep(d, 1))
        sample = list(vm)[:6]
        for v in sample:
            coords = operator_coords(phi_apply(v.matrix, spec), d)
            ok, _, _ = membership(coords, hrep_n)
            assert ok


def test_qubit_vertex_preservation_exhaustive():
    hrep22 = lambda_hrep(2, 2)
    v21 = enumerate_vertices(lambda_hrep(2, 1))
    for j_index in range(3):
        for r_index in range(2):
            spec = make_spec(2, 1, 2, j_index, r_index)
            for v in v21:
                cert = certify_vertex(operator_coords(phi_apply(v.matrix, spec), 2), hrep22)
                assert isinstance(cert, VertexCertificate)


def test_qutrit_vertex_preservation_splits_by_additivity():
    """The additive phase-point vertices embed to non-extreme points.

    Their image is the uniform average of d full-phase-space operators of
    the larger system, which this test exhibits exactly; the non-additive
    vertices embed to certified vertices.
    """
    hrep32 = lambda_hrep(3, 2)
    spec = make_spec(3, 1, 2)
    e31 = list(phase_space(3, 1))
    _, _, gammas = closure_and_cnc(e31)

    def is_additive(g):
        look = g.as_dict()
        return all(look[a + b] == (look[a] + look[b]) % 3 for a in e31 for b in e31)

    additive = [g for g in gammas if is_additive(g)]
    non_additive = [g for g in gammas if not is_additive(g)]
    assert len(additive) == 9

    from lambda_hvm.polytope import cnc_phase_point
    from tests_support import is_uniform_phase_point_average

    img = phi_apply(cnc_phase_point(e31, additive[0]), spec)
    cert = certify_vertex(operator_coords(img, 3), hrep32)
    assert not isinstance(cert, VertexCertificate)
    # exact witness: img is the uniform average of 3 full-phase-space vertices
    assert is_uniform_phase_point_average(img, 3, 2)

    img2 = phi_apply(cnc_phase_point(e31, non_additive[0]), spec)
    cert2 = certify_vertex(operator_coords(img2, 3), hrep32)
    assert isinstance(cert2, VertexCertificate)


def test_cnc_form_preservation_exact():
    for d in (2, 3):
        spec = make_spec(d, 1, 2, r_index=d - 2)
        full = list(phase_space(d, 1))
        _, _, gammas = closure_and_cnc(full)
        for gamma in gammas[:4]:
            img, expected = cnc_form_image(full, gamma, spec)
            assert img == expected


def test_trace_reduction_normalization():
    rng = random.Random(3)
    # d = 2: the printed 2^n prefactor coincides with d^n and holds on
    # sector-aligned subgroups; the general projected form always holds
    spec2 = make_spec(2, 1, 2)
    v21 = enumerate_vertices(lambda_hrep(2, 1))
    x2 = v21[0].matrix
    tested = general = printed = 0
    for group in enumerate_isotropics(2, 2, only_maximal=True):
        for s in value_assignments(group):
            rep = lem_trace_reduction(x2, spec2, group, s)
            tested += 1
            general += rep["matches_general_dn"]
            printed += rep["matches_printed_dn"]
    assert general == tested
    assert printed < tested  # sector-mixing subgroups break the printed form

    # d = 3 separates the normalizations: 2^n fails, d^n (general form) holds
    spec3 = make_spec(3, 1, 2)
    v31 = enumerate_vertices(lambda_hrep(3, 1))
    x3 = v31[7].matrix
    counts = {"tested": 0, "2n": 0, "general": 0}
    groups = enumerate_isotropics(3, 2, only_maximal=True)
    for group in [groups[i] for i in rng.sample(range(len(groups)), 6)]:
        for s in value_assignments(group)[:3]:
            rep = lem_trace_reduction(x3, spec3, group, s)
            counts["tested"] += 1
            counts["2n"] += rep["matches_printed_2n"]
            counts["general"] += rep["matches_general_dn"]
    assert counts["general"] == counts["tested"]
    assert counts["2n"] < counts["tested"]


def test_coefficient_trace_identity_random():
    rng = random.Random(17)
    for d in (2, 3):
        spec = make_spec(d, 1, 2, r_index=1)
        i_groups = enumerate_isotropics(d, 1, only_maximal=True)
        for _ in range(60):
            y = random_traceless(d, 2, rng)
            ip = i_groups[rng.randrange(len(i_groups))]
            sp = value_assignments(ip)[rng.randrange(d)]
            lhs, rhs = lem_coefficient_trace(y, spec, ip, sp)
            assert lhs == rhs


def test_suite_phi_vertex_preservation_verdict_at_odd_d():
    """At d = 3 the self-check passes when exactly the additive images fail."""
    from lambda_hvm.checks import suite_phi

    checks = {c["name"]: c for c in suite_phi(3, random.Random(0), lem2_samples=5)}
    vp = checks["vertex_preservation"]
    assert vp["passed"], vp["detail"]
    failures = vp["detail"].split("failures (index, additive): ")[1].split("]")[0]
    assert "True" in failures and "False" not in failures
    assert vp["detail"].endswith("failure set matches the additive family: True")
