"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every comparison here is exact unless the criterion itself states a numeric
tolerance (1e-10 for the numeric-mode Born/post-state checks, 5 sigma /
chi-square for sampling).  Criterion 8's vertex-preservation clause asserts
what holds: at d = 2 every embedded vertex certifies; at odd d the embedding
of a phase-point vertex with additive assignment is the uniform average of d
distinct phase-point operators of the larger system (an exact witness, as in
tests/test_phi_map.py), so it is not extreme, while the non-additive images
certify as vertices (see the acceptance paragraph of README.md).

Criterion 9 (two-qubit enumeration) is a stretch goal and runs only when
LAMBDA_HVM_STRETCH=1; the full pipeline takes roughly twenty minutes and is
also reachable via `lambda-hvm vertices -d 2 -n 2`.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from lambda_hvm.cyclotomic import CycNumber
from lambda_hvm.hvm import (Circuit, HiddenVariableModel, MeasureOp,
                            PhiMapSpec, chi_square, cnc_form_image,
                            lem_coefficient_trace, lem_trace_reduction,
                            oracle_distribution, phi_apply, random_circuit,
                            run_shots, verify_circuit_born)
from lambda_hvm.linalg import CycMatrix
from lambda_hvm.pauli import (PhasePoint, _mu_step, clifford_generators, compose_check,
                              pauli_mono, pauli_order, phase_space,
                              symplectic_product)
from lambda_hvm.polytope import (VertexCertificate, certify_vertex,
                                 cnc_phase_point, coords_key,
                                 duality_dilation_check, enumerate_vertices,
                                 lambda_hrep, membership, operator_coords,
                                 pauli_bound, pauli_coefficients)
from lambda_hvm.presets import preset_state
from lambda_hvm.stabilizer import (closure_and_cnc, coarse_grain,
                                   clifford_transport, enumerate_isotropics,
                                   projector, projector_product,
                                   value_assignments)


def report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    return passed


@pytest.fixture(scope="module")
def v21():
    return enumerate_vertices(lambda_hrep(2, 1))


@pytest.fixture(scope="module")
def v31():
    return enumerate_vertices(lambda_hrep(3, 1))


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_pauli_algebra():
    """Commutator, composition with the exact beta, and (T_a)^d = 1."""
    t0 = time.time()
    checked = 0
    for d, n in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2)):
        t = _mu_step(d)
        points = list(phase_space(d, n))
        for a in points:
            assert pauli_mono(a).power(d).is_identity()
        for a, b in itertools.product(points, points):
            e, c = compose_check(a, b)
            k = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_mu(pauli_mono(c))
            expected = Fraction(e) * t
            assert expected.denominator == 1
            assert k == int(expected) % pauli_order(d), (d, n, a, b)
            comm = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_omega(
                pauli_mono(b) @ pauli_mono(a))
            assert comm == symplectic_product(a, b)
            checked += 1
    elapsed = time.time() - t0
    assert report("criterion 1 (Pauli algebra, exact)", elapsed < 60,
                  f"{checked} ordered pairs across five systems in {elapsed:.1f}s")
    assert elapsed < 60


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_stabilizer_suite():
    """Coarse graining, Clifford transport, projector products vs dense algebra."""
    t0 = time.time()
    rng = random.Random(202)
    product_checks = 0
    for d, n in ((2, 1), (3, 1), (4, 1)):
        pairs = [(g, r) for g in enumerate_isotropics(d, n) for r in value_assignments(g)]
        for (gi, r), (gj, s) in itertools.product(pairs, pairs):
            res = projector_product(gi, r, gj, s)
            pi, pj = projector(gi, r).matrix, projector(gj, s).matrix
            assert (pj @ pi).trace() == res.trace
            assert pi @ pj @ pi == res.matrix(d, n)
            product_checks += 1
        groups = enumerate_isotropics(d, n)
        for small in groups:
            for large in groups:
                if len(small) < len(large) and set(small.elements) <= set(large.elements):
                    for r in value_assignments(small):
                        exts = coarse_grain(small, r, large)
                        assert len(exts) == len(large) // len(small)
                        acc = None
                        for e in exts:
                            m = projector(large, e).matrix
                            acc = m if acc is None else acc + m
                        assert acc == projector(small, r).matrix
        for g in groups:
            for r in value_assignments(g):
                u = rng.choice(clifford_generators(d, n))
                gi, ri = clifford_transport(u, g, r)
                assert u.apply(projector(g, r).matrix) == projector(gi, ri).matrix
    for d, n in ((2, 2), (3, 2)):
        pairs = [(g, r) for g in enumerate_isotropics(d, n) for r in value_assignments(g)]
        for _ in range(500):
            gi, r = rng.choice(pairs)
            gj, s = rng.choice(pairs)
            res = projector_product(gi, r, gj, s)
            pi, pj = projector(gi, r).matrix, projector(gj, s).matrix
            assert (pj @ pi).trace() == res.trace
            assert pi @ pj @ pi == res.matrix(d, n)
            product_checks += 1
    elapsed = time.time() - t0
    assert report("criterion 2 (stabilizer suite, exact)", elapsed < 300,
                  f"{product_checks} product identities plus coarse-graining/transport "
                  f"in {elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_single_qubit_polytope(v21):
    t0 = time.time()
    assert len(v21) == 8
    from lambda_hvm.pauli import pauli_matrix
    x = pauli_matrix(PhasePoint.unit_x(2, 1))
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    z = pauli_matrix(PhasePoint.unit_z(2, 1))
    ident = CycMatrix.identity(2)
    expected = set()
    for sx, sy, sz in itertools.product((1, -1), repeat=3):
        m = (ident + x.scale(sx) + y.scale(sy) + z.scale(sz)).scale(Fraction(1, 2))
        expected.add(coords_key(operator_coords(m, 2), 2))
    assert {coords_key(v.coords, 2) for v in v21} == expected
    for v in v21:
        assert isinstance(v.certificate, VertexCertificate)
    dual_report = duality_dilation_check(2, 1, lambda_vertices=v21)
    assert dual_report["double_dual_ok"] and dual_report["simplex_self_dual"]
    elapsed = time.time() - t0
    assert report("criterion 3 (single-qubit polytope)", elapsed < 10,
                  f"8 cube vertices certified, duality checks pass in {elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_qutrit_phase_point_vertices(v31):
    t0 = time.time()
    e31 = list(phase_space(3, 1))
    _, _, gammas = closure_and_cnc(e31)
    assert len(gammas) == 81
    hrep = lambda_hrep(3, 1)
    maximal = enumerate_isotropics(3, 1, only_maximal=True)
    for gamma in gammas:
        a_op = cnc_phase_point(e31, gamma)
        cert = certify_vertex(operator_coords(a_op, 3), hrep)
        assert isinstance(cert, VertexCertificate)
        for group in maximal:
            for r in value_assignments(group):
                t = (projector(group, r).matrix @ a_op).trace()
                match = all(r(p) == gamma(p) for p in group.elements)
                assert t == (1 if match else 0)
    elapsed = time.time() - t0
    assert report("criterion 4 (81 qutrit phase-point vertices)", elapsed < 120,
                  f"all 81 certified with exact 0/1 Born traces in {elapsed:.1f}s")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_pauli_bound(v21, v31):
    checked = 0
    for vset, (d, n) in ((v21, (2, 1)), (v31, (3, 1))):
        for v in vset:
            assert pauli_bound(v.matrix, d, n).leq_one()
            checked += 1
    detail = f"{checked} vertices at (2,1) and (3,1)"
    path = os.environ.get("LAMBDA_HVM_V22")
    if path and os.path.exists(path):
        from lambda_hvm.polytope import load_vertex_file
        v22 = load_vertex_file(path)
        for v in v22:
            assert pauli_bound(v.matrix, 2, 2).leq_one()
        detail += f" plus {len(v22)} two-qubit vertices"
    else:
        detail += " (two-qubit set checked when LAMBDA_HVM_V22 points at a vertex file)"
    assert report("criterion 5 (Pauli expectation bound, exact)", True, detail)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_born_equality(v21, v31):
    t0 = time.time()
    rng = random.Random(606)
    circuits = 0
    model2 = HiddenVariableModel(v21, mode="exact")
    gens2 = clifford_generators(2, 1)
    for name in ("T", "H"):
        rho = preset_state(name, 2, 1)
        for _ in range(13):
            circ = random_circuit(2, 1, rng.randint(1, 4), rng, gens2, rho, name)
            rep = verify_circuit_born(circ, model2)  # exact equality asserted
            circuits += 1
    model3 = HiddenVariableModel(v31, mode="numeric")
    gens3 = clifford_generators(3, 1)
    worst = 0.0
    for name in ("strange", "norrell"):
        rho = preset_state(name, 3, 1)
        for _ in range(13):
            circ = random_circuit(3, 1, rng.randint(1, 4), rng, gens3, rho, name)
            rep = verify_circuit_born(circ, model3, tol=1e-10)
            worst = max(worst, rep["max_prob_err"], rep["max_state_err"])
            circuits += 1
    elapsed = time.time() - t0
    assert report("criterion 6 (Born equality on random circuits)", circuits >= 50,
                  f"{circuits} circuits: exact at (2,1); numeric worst error "
                  f"{worst:.2e} <= 1e-10 at (3,1); {elapsed:.1f}s")
    assert elapsed < 600


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_sampling(v21, v31):
    t0 = time.time()
    model2 = HiddenVariableModel(v21, mode="exact")
    rho_t = preset_state("T", 2, 1)
    circ = Circuit(2, 1, rho_t, "T", (MeasureOp(PhasePoint.unit_z(2, 1)),))
    shots = 100000
    records = run_shots(circ, model2, model2.decompose(rho_t), shots, seed=777)
    freq = sum(1 for r in records if r.outcomes[0] == 0) / shots
    expected = (1 + 3 ** -0.5) / 2
    sigma = (expected * (1 - expected) / shots) ** 0.5
    dev = abs(freq - expected) / sigma
    assert dev < 5

    rng = random.Random(707)
    model3 = HiddenVariableModel(v31, mode="numeric")
    gens3 = clifford_generators(3, 1)
    rho_s = preset_state("strange", 3, 1)
    dist = model3.decompose(rho_s)
    pvals = []
    for k in range(10):
        circ3 = random_circuit(3, 1, rng.randint(1, 3), rng, gens3, rho_s, "strange")
        probs = oracle_distribution(circ3)
        recs = run_shots(circ3, model3, dist, 20000, seed=1000 + k)
        counts: dict = {}
        for rec in recs:
            counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
        _, p = chi_square(counts, probs, 20000)
        pvals.append(p)
        assert p > 1e-3
    elapsed = time.time() - t0
    assert report("criterion 7 (sampling statistics)", True,
                  f"1e5 T-state shots within {dev:.2f} sigma of {expected:.6f}; "
                  f"10 qutrit circuits, min chi-square p = {min(pvals):.4f}; {elapsed:.1f}s")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_embedding(v21, v31):
    t0 = time.time()
    rng = random.Random(808)
    details = []
    failed = []  # the vertex-preservation clauses that do not hold

    # d = 2: every cube vertex embeds to a certified two-qubit vertex
    spec2 = PhiMapSpec(1, 2, enumerate_isotropics(2, 1, only_maximal=True)[0],
                       value_assignments(enumerate_isotropics(2, 1, only_maximal=True)[0])[0])
    hrep22 = lambda_hrep(2, 2)
    certified2 = sum(
        isinstance(certify_vertex(operator_coords(phi_apply(v.matrix, spec2), 2), hrep22),
                   VertexCertificate)
        for v in v21)
    if certified2 != len(v21):
        failed.append(f"d=2: only {certified2}/{len(v21)} embedded vertices certified")
    details.append(f"d=2: {certified2}/{len(v21)} embedded vertices certified")

    # d = 3: the split by additivity.  An additive vertex A_u embeds to
    # A_u (x) Pi_J^r, the uniform average of the d phase-point operators
    # A_(u,v) with v on the line J^r; those operators are a basis, so the
    # image is a proper mixture and not extreme.  The others certify.
    j3 = enumerate_isotropics(3, 1, only_maximal=True)[0]
    spec3 = PhiMapSpec(1, 2, j3, value_assignments(j3)[0])
    hrep32 = lambda_hrep(3, 2)
    e31 = list(phase_space(3, 1))
    _, _, gammas = closure_and_cnc(e31)

    def additive(g):
        look = g.as_dict()
        return all(look[a + b] == (look[a] + look[b]) % 3 for a in e31 for b in e31)

    add = [g for g in gammas if additive(g)]
    non = [g for g in gammas if not additive(g)]

    from tests_support import is_uniform_phase_point_average

    def certifies(img):
        return isinstance(certify_vertex(operator_coords(img, 3), hrep32), VertexCertificate)

    rejected = witnessed = certified3 = 0
    for label, gamma in (("add[0]", add[0]), ("add[1]", add[1])):
        img = phi_apply(cnc_phase_point(e31, gamma), spec3)
        if certifies(img):
            failed.append(f"d=3: additive image {label} certifies as a vertex")
        else:
            rejected += 1
        if is_uniform_phase_point_average(img, 3, 2):
            witnessed += 1
        else:
            failed.append(f"d=3: additive image {label} is not the uniform average "
                          "of 3 distinct phase-point operators")
    for label, gamma in (("non[0]", non[0]), ("non[1]", non[1]), ("non[2]", non[2])):
        if certifies(phi_apply(cnc_phase_point(e31, gamma), spec3)):
            certified3 += 1
        else:
            failed.append(f"d=3: non-additive image {label} does not certify")
    details.append(
        f"d=3: {rejected}/2 additive images not extreme, {witnessed}/2 exactly the uniform "
        f"average of 3 distinct two-qutrit phase-point operators; {certified3}/3 "
        "non-additive images certified")

    # cnc-form preservation, exact
    for d, spec in ((2, spec2), (3, spec3)):
        full = list(phase_space(d, 1))
        _, _, gms = closure_and_cnc(full)
        for gamma in gms[:3]:
            img, expected = cnc_form_image(full, gamma, spec)
            assert img == expected
    details.append("cnc-form preservation exact on both dimensions")

    # coefficient-trace identity on 100 random instances (both dimensions)
    from lambda_hvm.checks import random_traceless
    count = 0
    for d, spec in ((2, spec2), (3, spec3)):
        i_groups = enumerate_isotropics(d, 1, only_maximal=True)
        for _ in range(50):
            y = random_traceless(d, 2, rng)
            ip = i_groups[rng.randrange(len(i_groups))]
            sp = value_assignments(ip)[rng.randrange(d)]
            lhs, rhs = lem_coefficient_trace(y, spec, ip, sp)
            assert lhs == rhs
            count += 1
    details.append(f"coefficient-trace identity exact on {count} random instances")

    # normalization: 2^n vs d^n resolved empirically at d=3
    counts = {"tested": 0, "two_n": 0, "general": 0}
    groups32 = enumerate_isotropics(3, 2, only_maximal=True)
    x3 = v31[3].matrix
    for gi in [groups32[i] for i in rng.sample(range(len(groups32)), 5)]:
        for s in value_assignments(gi)[:2]:
            rep = lem_trace_reduction(x3, spec3, gi, s)
            counts["tested"] += 1
            counts["two_n"] += rep["matches_printed_2n"]
            counts["general"] += rep["matches_general_dn"]
    assert counts["general"] == counts["tested"]
    assert counts["two_n"] < counts["tested"]
    details.append(f"trace-reduction normalization is d^n, not 2^n: {counts}")

    elapsed = time.time() - t0
    passed = report("criterion 8 (embedding between polytopes)", not failed,
                    "; ".join(details) + f"; {elapsed:.1f}s")
    assert elapsed < 300
    assert passed, ("vertex preservation: " + "; ".join(failed)
                    + " (see the acceptance paragraph of README.md and the witness in "
                    "tests/test_phi_map.py)")


# -- criterion 9 (stretch) -----------------------------------------------------

@pytest.mark.skipif(os.environ.get("LAMBDA_HVM_STRETCH") != "1",
                    reason="two-qubit enumeration takes ~20 minutes; "
                           "set LAMBDA_HVM_STRETCH=1 (optionally LAMBDA_HVM_V22=file)")
def test_criterion_9_two_qubit_enumeration():
    t0 = time.time()
    path = os.environ.get("LAMBDA_HVM_V22")
    if path and os.path.exists(path):
        from lambda_hvm.polytope import load_vertex_file
        vset = load_vertex_file(path)
    else:
        vset = enumerate_vertices(lambda_hrep(2, 2))
    from lambda_hvm.cli import clifford_orbits
    orbits, cnc_flags = clifford_orbits(vset)
    cnc_orbits = sum(1 for f in cnc_flags if f)
    detail = (f"{len(vset)} certified vertices, {len(orbits)} Clifford orbits "
              f"(sizes {sorted((len(o) for o in orbits), reverse=True)}), "
              f"{cnc_orbits} cnc-type orbits; cited orbit count is eight; "
              f"{time.time() - t0:.0f}s")

    # with the complete vertex set available, the Born cross-validation also
    # runs at (2,2) on a two-qubit magic input
    model = HiddenVariableModel(vset, mode="numeric")
    rho = preset_state("T", 2, 1).kron(preset_state("T", 2, 1))
    rng = random.Random(909)
    gens = [g for g in clifford_generators(2, 2) if g.name in ("F0", "S1", "SUM01")]
    worst = 0.0
    for _ in range(3):
        circ = random_circuit(2, 2, 2, rng, gens, rho, "TxT")
        rep = verify_circuit_born(circ, model, tol=1e-10)
        worst = max(worst, rep["max_prob_err"], rep["max_state_err"])
    detail += f"; (2,2) Born checks on 3 random circuits, worst error {worst:.2e}"
    assert report("criterion 9 (two-qubit enumeration, stretch)",
                  len(orbits) == 8 and cnc_orbits >= 1, detail)
