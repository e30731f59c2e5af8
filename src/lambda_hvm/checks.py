"""Named verification suites over the library's exact invariants.

Each suite returns a list of check dicts {name, passed, detail}; the CLI
serializes them to JSON and the acceptance tests assert on them.  All
comparisons are exact unless a check explicitly says otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .cyclotomic import CycNumber, zeta
from .linalg import CycMatrix
from .pauli import (PhasePoint, beta_mod_d, clifford_generators, compose_check,
                    omega_power, pauli_mono, pauli_order, phase_space,
                    symplectic_product)
from .polytope import (VertexCertificate, VertexSet, certify_vertex,
                       cnc_phase_point, detect_cnc_form,
                       duality_dilation_check, enumerate_vertices,
                       lambda_hrep, membership, operator_coords, pauli_bound,
                       stabilizer_states)
from .stabilizer import (closure_and_cnc, coarse_grain, clifford_transport,
                         enumerate_isotropics, projector, projector_product,
                         value_assignments)

__all__ = ["run_suite", "SUITES", "random_traceless"]


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# pauli suite


def suite_pauli(d: int, n: int, rng: random.Random, sample: int = 4000) -> list[dict]:
    points = list(phase_space(d, n))
    exhaustive = len(points) ** 2 <= sample
    if exhaustive:
        pairs = [(a, b) for a in points for b in points]
    else:
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(sample)]
    out = []

    bad = 0
    for a, b in pairs:
        e, c = compose_check(a, b)
        k = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_mu(pauli_mono(c))
        if k is None or zeta(pauli_order(d), k) != omega_power(d, e):
            bad += 1
    out.append(_check("composition_explicit_beta", bad == 0,
                      f"{len(pairs)} pairs ({'exhaustive' if exhaustive else 'sampled'}), {bad} failures"))

    bad = 0
    for a, b in pairs:
        comm = (pauli_mono(a) @ pauli_mono(b)).equals_up_to_omega(pauli_mono(b) @ pauli_mono(a))
        if comm != symplectic_product(a, b):
            bad += 1
    out.append(_check("commutator_symplectic", bad == 0, f"{len(pairs)} pairs, {bad} failures"))

    bad = sum(0 if pauli_mono(a).power(d).is_identity() else 1 for a in points)
    out.append(_check("pauli_power_identity", bad == 0, f"(T_a)^d = 1 on {len(points)} labels"))

    bad = 0
    tested = 0
    for a in points[: min(len(points), 12)]:
        for b in points[: min(len(points), 12)]:
            tr = (pauli_mono(a).dagger() @ pauli_mono(b)).trace()
            tested += 1
            if tr != (d ** n if a == b else 0):
                bad += 1
    out.append(_check("trace_orthogonality", bad == 0, f"{tested} pairs"))

    line_ok, halfshift = 0, 0
    total = 0
    for a in points:
        for k in range(d):
            v = beta_mod_d(a, a.scale(k))
            total += 1
            if v == 0:
                line_ok += 1
            elif d % 2 == 0 and v == d // 2:
                halfshift += 1
    if d % 2 or d == 2:
        out.append(_check("beta_vanishes_on_lines", line_ok == total, f"{total} (a,k) pairs"))
    else:
        out.append(_check("beta_on_lines_mod_half_d", line_ok + halfshift == total,
                          f"{total} pairs; {halfshift} take the value d/2 (even-d wraparound)"))

    gens = clifford_generators(d, n)
    bad = []
    for g in gens:
        imgs = {(p.az, p.ax) for p in g.symplectic_map.values()}
        if len(imgs) != len(points) or g.phase_map[PhasePoint.zero(d, n)] != 0:
            bad.append(g.name)
            continue
        for a, b in [(rng.choice(points), rng.choice(points)) for _ in range(40)]:
            if symplectic_product(g.symplectic_map[a], g.symplectic_map[b]) != symplectic_product(a, b):
                bad.append(g.name)
                break
    out.append(_check("clifford_generators_validated", not bad,
                      f"{[g.name for g in gens]}; failures: {bad}"))
    return out


# ---------------------------------------------------------------------------
# stabilizer suite


KNOWN_MAXIMAL_COUNTS = {(2, 1): 3, (3, 1): 4, (4, 1): 7, (2, 2): 15, (3, 2): 40}


def suite_stabilizer(d: int, n: int, rng: random.Random, product_samples: int = 500) -> list[dict]:
    out = []
    groups = enumerate_isotropics(d, n)
    maximal = [g for g in groups if g.is_maximal()]
    known = KNOWN_MAXIMAL_COUNTS.get((d, n))
    out.append(_check("maximal_isotropic_count",
                      known is None or len(maximal) == known,
                      f"{len(maximal)} maximal of {len(groups)} total"
                      + (f" (expected {known})" if known else "")))

    pairs = [(g, r) for g in groups for r in value_assignments(g)]
    bad = 0
    for g, r in pairs:
        m = projector(g, r).matrix
        if not (m @ m == m and m.is_hermitian() and m.trace() == Fraction(d ** n, len(g))):
            bad += 1
    out.append(_check("projector_algebra", bad == 0,
                      f"{len(pairs)} (I,r) pairs: idempotent, Hermitian, rank d^n/|I|"))

    bad = 0
    for g in maximal:
        acc = None
        for r in value_assignments(g):
            m = projector(g, r).matrix
            acc = m if acc is None else acc + m
        if acc != CycMatrix.identity(d ** n):
            bad += 1
    out.append(_check("projection_valued_measure", bad == 0,
                      f"sum_r Pi_I^r = 1 on {len(maximal)} maximal subgroups"))

    # Lemma: products against dense matrix algebra
    if len(pairs) ** 2 <= product_samples:
        chosen = [(p, q) for p in pairs for q in pairs]
        how = "exhaustive"
    else:
        chosen = [(rng.choice(pairs), rng.choice(pairs)) for _ in range(product_samples)]
        how = "sampled"
    bad = 0
    for (gi, r), (gj, s) in chosen:
        res = projector_product(gi, r, gj, s)
        pi, pj = projector(gi, r).matrix, projector(gj, s).matrix
        if (pj @ pi).trace() != res.trace or (pi @ pj @ pi) != res.matrix(d, n):
            bad += 1
    out.append(_check("projector_products_vs_dense", bad == 0,
                      f"{len(chosen)} ordered pairs ({how})"))

    # coarse graining over nested pairs
    tested, bad = 0, 0
    for small in groups:
        for large in groups:
            if len(small) >= len(large) or not set(small.elements) <= set(large.elements):
                continue
            for r in value_assignments(small):
                exts = coarse_grain(small, r, large)
                tested += 1
                if len(exts) != len(large) // len(small):
                    bad += 1
                    continue
                acc = None
                for e in exts:
                    m = projector(large, e).matrix
                    acc = m if acc is None else acc + m
                if acc != projector(small, r).matrix:
                    bad += 1
            if tested >= 200:
                break
        if tested >= 200:
            break
    out.append(_check("coarse_graining_resolution", bad == 0, f"{tested} nested (I, r, I') cases"))

    gens = clifford_generators(d, n)
    tested, bad = 0, 0
    for g in groups:
        for r in value_assignments(g):
            u = gens[rng.randrange(len(gens))]
            gi, ri = clifford_transport(u, g, r)
            tested += 1
            if u.apply(projector(g, r).matrix) != projector(gi, ri).matrix:
                bad += 1
    out.append(_check("clifford_transport_exact", bad == 0, f"{tested} (U, I, r) cases"))

    # difference of assignments scales linearly along lines
    bad, tested = 0, 0
    for g in maximal[: min(4, len(maximal))]:
        assigns = value_assignments(g)
        for _ in range(20):
            ga, nu = rng.choice(assigns), rng.choice(assigns)
            a = rng.choice(list(g.elements))
            for k in range(d):
                tested += 1
                if (ga(a.scale(k)) - nu(a.scale(k))) % d != (k * (ga(a) - nu(a))) % d:
                    bad += 1
    out.append(_check("assignment_difference_linearity", bad == 0, f"{tested} (gamma,nu,a,k) cases"))
    return out


# ---------------------------------------------------------------------------
# polytope suite


def _random_density(d: int, n: int, rng: random.Random) -> CycMatrix:
    """Exact random PSD trace-one matrix (Gaussian-rational M^dag M, normalized)."""
    dim = d ** n
    i_unit = zeta(4)
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            row.append(CycNumber.from_rational(Fraction(rng.randint(-2, 2)))
                       + i_unit * Fraction(rng.randint(-2, 2)))
        rows.append(row)
    m = CycMatrix(rows)
    g = m.dagger() @ m
    tr = g.trace()
    if tr.is_zero():
        return CycMatrix.identity(dim, Fraction(1, dim))
    return g.scale(tr.inverse())


def suite_polytope(d: int, n: int, rng: random.Random,
                   vertex_set: Optional[VertexSet] = None, deep: bool = True) -> list[dict]:
    out = []
    states = stabilizer_states(d, n)
    known_states = {(2, 1): 6, (3, 1): 12, (2, 2): 60, (3, 2): 360}.get((d, n))
    out.append(_check("stabilizer_state_count",
                      known_states is None or len(states) == known_states,
                      f"{len(states)} pure stabilizer states"
                      + (f" (expected {known_states})" if known_states else "")))

    hrep = lambda_hrep(d, n)

    bad = 0
    for _ in range(10):
        rho = _random_density(d, n, rng)
        ok, _, _ = membership(operator_coords(rho, d), hrep)
        if not ok:
            bad += 1
    out.append(_check("density_matrices_inside", bad == 0, "10 random PSD trace-1 samples"))

    if vertex_set is None and deep:
        vertex_set = enumerate_vertices(hrep)
    if vertex_set is not None:
        out.append(_check("vertex_enumeration_certified", True,
                          f"{len(vertex_set)} certified vertices"))
        bad = sum(0 if pauli_bound(v.matrix, d, n).leq_one() else 1 for v in vertex_set)
        out.append(_check("pauli_expectation_bound", bad == 0,
                          f"max_a |Tr(T_a A)| <= 1 exact on {len(vertex_set)} vertices"))

        gens = clifford_generators(d, n)
        closed = True
        for g in gens:
            for v in vertex_set:
                if vertex_set.lookup_matrix(g.apply(v.matrix)) is None:
                    closed = False
                    break
            if not closed:
                break
        out.append(_check("clifford_closure_of_vertices", closed,
                          f"{len(gens)} generators permute the vertex set"))

        cnc_count = sum(1 for v in vertex_set if detect_cnc_form(v.matrix, d, n) is not None)
        out.append(_check("cnc_form_tally", True,
                          f"{cnc_count}/{len(vertex_set)} vertices are phase-point operators"))

        # conditional update stays inside the polytope
        groups = enumerate_isotropics(d, n)
        bad, tested = 0, 0
        for _ in range(12):
            v = vertex_set[rng.randrange(len(vertex_set))]
            g = groups[rng.randrange(len(groups))]
            for r in value_assignments(g):
                pim = projector(g, r).matrix
                t = (pim @ v.matrix).trace()
                if not t.is_real() or t.sign() <= 0:
                    continue
                post = (pim @ v.matrix @ pim).scale(t.inverse())
                ok, _, _ = membership(operator_coords(post, d), hrep)
                tested += 1
                if not ok:
                    bad += 1
        out.append(_check("measurement_update_stays_inside", bad == 0, f"{tested} (A,I,r) cases"))

    if d % 2 == 1:
        # phase-point operators on all of E are vertices; Born traces are 0/1
        full = list(phase_space(d, n))
        closed, is_cnc, gammas = closure_and_cnc(full)
        bad_cert, bad_trace = 0, 0
        sample = gammas if len(gammas) <= 16 else [gammas[i] for i in
                                                   rng.sample(range(len(gammas)), 16)]
        maximal = [g for g in enumerate_isotropics(d, n) if g.is_maximal()]
        for gamma in sample:
            a_op = cnc_phase_point(full, gamma)
            cert = certify_vertex(operator_coords(a_op, d), hrep)
            if not isinstance(cert, VertexCertificate):
                bad_cert += 1
            for gi in maximal:
                for r in value_assignments(gi):
                    t = (projector(gi, r).matrix @ a_op).trace()
                    match = all(r(p) == gamma(p) for p in gi.elements)
                    if t != (1 if match else 0):
                        bad_trace += 1
        out.append(_check("full_phase_space_operators_are_vertices", bad_cert == 0,
                          f"{len(sample)}/{len(gammas)} assignments certified"))
        out.append(_check("phase_point_born_traces_zero_one", bad_trace == 0,
                          "Tr(Pi_I^r A_E^gamma) = 1 iff r = gamma|_I else 0"))
    else:
        full = list(phase_space(d, n))
        closed, is_cnc, _ = closure_and_cnc(full, limit=1)
        out.append(_check("full_phase_space_assignment_existence", True,
                          f"assignments on E exist: {is_cnc} (empirical; expected only for odd d or n=1)"))

    if deep:
        try:
            report = duality_dilation_check(d, n, lambda_vertices=vertex_set)
            out.append(_check("duality_and_dilation", True, str(report)))
        except AssertionError as exc:
            out.append(_check("duality_and_dilation", False, str(exc)))
    return out


# ---------------------------------------------------------------------------
# hvm suite


def suite_hvm(d: int, n: int, rng: random.Random, circuits: int = 8,
              mode: Optional[str] = None) -> list[dict]:
    from .hvm import (HiddenVariableModel, MeasureOp, chi_square,
                      oracle_distribution, random_circuit, run_shots,
                      verify_circuit_born)
    from .presets import preset_state

    out = []
    hrep = lambda_hrep(d, n)
    vset = enumerate_vertices(hrep)
    if mode is None:
        mode = "exact" if (d, n) == (2, 1) else "numeric"
    model = HiddenVariableModel(vset, mode=mode)
    gens = clifford_generators(d, n)

    if (d, n) == (2, 1):
        state, state_name = preset_state("T", d, n), "T"
    elif (d, n) == (3, 1):
        state, state_name = preset_state("strange", d, n), "strange"
    else:
        state, state_name = preset_state("zero", d, n), "zero"

    bad = 0
    worst = 0.0
    for k in range(circuits):
        circ = random_circuit(d, n, 3, rng, gens, state, state_name)
        try:
            rep = verify_circuit_born(circ, model)
            worst = max(worst, rep["max_prob_err"], rep["max_state_err"])
        except AssertionError:
            bad += 1
    out.append(_check("layered_born_and_poststate", bad == 0,
                      f"{circuits} random depth-3 circuits, mode={mode}, worst error {worst:.2e}"))

    # kernel normalization on fresh kernels
    points = [p for p in phase_space(d, n) if not p.is_zero()]
    bad, kernels = 0, []
    for _ in range(6):
        alpha = rng.randrange(len(vset))
        group = MeasureOp(rng.choice(points)).group()
        kern = model.kernel(alpha, group)
        kernels.append(kern)
        total = sum(float(w) for w in kern.entries.values())
        if abs(total - 1.0) > 1e-9:
            bad += 1
    out.append(_check("kernel_normalization", bad == 0, f"{len(kernels)} kernels"))

    # the same kernels and every line at vertex 0 against the dense forms
    lines = {g.key(): g for g in (MeasureOp(p).group() for p in points)}
    kernels += [model.kernel(0, g) for g in lines.values()]
    bad = sum(not _kernel_matches_dense(model, kern) for kern in kernels)
    out.append(_check("kernel_marginals_and_branches", bad == 0,
                      f"{len(kernels)} kernels, mode={mode}, {bad} failures"))

    # group action: permutations compose
    u, v = rng.choice(gens), rng.choice(gens)
    uv = u.compose(v)
    pu, pv, puv = (model.clifford_permutation(x) for x in (u, v, uv))
    ok = all(puv[a] == pu[pv[a]] for a in range(len(vset)))
    out.append(_check("clifford_update_group_action", ok, f"{u.name} after {v.name}"))

    # sampling statistics against the oracle
    circ = random_circuit(d, n, 2, rng, gens, state, state_name)
    probs = oracle_distribution(circ)
    dist = model.decompose(state)
    shots = 20000
    recs = run_shots(circ, model, dist, shots, seed=20240 + d)
    counts: dict[tuple[int, ...], int] = {}
    for rec in recs:
        counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
    try:
        stat, pval = chi_square(counts, probs, shots)
        passed, detail = pval > 1e-3, f"{shots} shots, chi2 = {stat:.2f}, p = {pval:.4f}"
    except AssertionError as exc:       # an outcome the oracle gives probability 0
        passed, detail = False, f"{shots} shots: {exc}"
    out.append(_check("sampling_chi_square", passed, detail))
    return out


def _kernel_matches_dense(model, kern) -> bool:
    """Each marginal of kern equals Tr(Pi_I^r A) and each branch, divided
    by it, reconstructs Pi A Pi / Tr(Pi A): exactly in exact mode, within
    1e-9 in numeric mode."""
    from .hvm import StateDistribution, VerificationError, trace_with_projector
    from .stabilizer import group_projector_matrix

    a_mat = model.vset[kern.alpha].matrix
    try:
        for ri, r in enumerate(kern.assignments):
            t = trace_with_projector(kern.group, r, a_mat)
            model._check(kern.marginals[ri], t, 1e-9, "", "")
            branch = kern.branch(ri)
            if t.is_zero():
                if branch:
                    return False
                continue
            scale = t.inverse() if model.mode == "exact" else 1.0 / float(t)
            proj = group_projector_matrix(kern.group, r)
            dist = StateDistribution(model.vset, {b: q * scale for b, q in branch}, model.mode)
            model._check(dist, (proj @ a_mat @ proj).scale(t.inverse()), 1e-9, "", "")
    except VerificationError:
        return False
    return True


# ---------------------------------------------------------------------------
# phi suite


def suite_phi(d: int, rng: random.Random, lem2_samples: int = 100) -> list[dict]:
    from .hvm import (PhiMapSpec, cnc_form_image, lem_coefficient_trace,
                      lem_trace_reduction, phi_apply)

    out = []
    m, n = 1, 2
    js = enumerate_isotropics(d, 1, only_maximal=True)
    j_group = js[0]
    r_choices = value_assignments(j_group)
    spec = PhiMapSpec(m, n, j_group, r_choices[min(1, len(r_choices) - 1)])

    hrep_m = lambda_hrep(d, m)
    vset_m = enumerate_vertices(hrep_m)
    hrep_n = lambda_hrep(d, n)

    # cnc-form preservation, exact
    full = list(phase_space(d, m))
    closed, is_cnc, gammas = closure_and_cnc(full)
    bad = 0
    sample = gammas if len(gammas) <= 6 else [gammas[i] for i in rng.sample(range(len(gammas)), 6)]
    for gamma in sample:
        img, expected = cnc_form_image(full, gamma, PhiMapSpec(m, n, j_group, spec.r))
        if img != expected:
            bad += 1
    out.append(_check("cnc_form_preservation", bad == 0 and is_cnc,
                      f"{len(sample)} assignments, image = A_(Omega+J)^(gamma*r) exactly"))

    # coefficient-trace identity on random instances
    i_groups = enumerate_isotropics(d, m, only_maximal=True)
    bad = 0
    for _ in range(lem2_samples):
        y = random_traceless(d, n, rng)
        ip = i_groups[rng.randrange(len(i_groups))]
        sp = value_assignments(ip)[rng.randrange(d)]
        lhs, rhs = lem_coefficient_trace(y, spec, ip, sp)
        if lhs != rhs:
            bad += 1
    out.append(_check("coefficient_trace_identity", bad == 0, f"{lem2_samples} random (Y, I', s')"))

    # trace reduction: which closed form matches exact matrix algebra
    maximal_n = enumerate_isotropics(d, n, only_maximal=True)
    counts = {"tested": 0, "printed_2n": 0, "printed_dn": 0, "general_dn": 0}
    x = vset_m[rng.randrange(len(vset_m))].matrix
    for gi in maximal_n[: min(10, len(maximal_n))]:
        for s in value_assignments(gi)[:3]:
            rep = lem_trace_reduction(x, spec, gi, s)
            counts["tested"] += 1
            counts["printed_2n"] += rep["matches_printed_2n"]
            counts["printed_dn"] += rep["matches_printed_dn"]
            counts["general_dn"] += rep["matches_general_dn"]
    out.append(_check("trace_reduction_general_form", counts["general_dn"] == counts["tested"],
                      f"{counts}; normalization is d^n (2^n fails for d != 2), and the printed "
                      f"subgroup form needs the projection of K when I mixes the sectors"))

    # membership of images
    img_sample = list(range(len(vset_m)))
    if len(img_sample) > 10:
        img_sample = rng.sample(img_sample, 10)
    bad = 0
    for idx in img_sample:
        ok, _, _ = membership(operator_coords(phi_apply(vset_m[idx].matrix, spec), d), hrep_n)
        if not ok:
            bad += 1
    out.append(_check("images_inside_lambda", bad == 0, f"{len(img_sample)} vertex images"))

    # vertex preservation, including the additive counterexample at odd d
    additive_flags = {idx: _is_additive_vertex(vset_m[idx].matrix, d, m)
                      for idx in range(len(vset_m))}
    additive_idx = [i for i, f in additive_flags.items() if f]
    other_idx = [i for i, f in additive_flags.items() if not f]
    sample_idx = additive_idx[:4] + other_idx[:4]
    results = []
    for idx in sample_idx:
        v = vset_m[idx]
        cert = certify_vertex(operator_coords(phi_apply(v.matrix, spec), d), hrep_n)
        results.append((idx, additive_flags[idx], isinstance(cert, VertexCertificate)))
    failures = [(i, add) for i, add, ok in results if not ok]
    if d == 2:
        out.append(_check("vertex_preservation", not failures,
                          f"{len(results)} embedded vertices certified"))
    else:
        # Odd d: exactly the additive images fail, and the sample must hold
        # both families for that statement to say anything.
        sampled_add = [i for i, add, _ in results if add]
        pattern_ok = [i for i, _ in failures] == sampled_add
        both = bool(sampled_add) and len(sampled_add) < len(results)
        out.append(_check(
            "vertex_preservation", pattern_ok and both,
            f"{len(results)} embedded vertices ({len(sampled_add)} additive); "
            f"failures (index, additive): {failures}. "
            "For odd d the image of a phase-point vertex with *additive* assignment is the "
            "uniform average of d full-phase-space vertices upstairs, hence provably not "
            f"extreme; failure set matches the additive family: {pattern_ok}"))
    return out


def random_traceless(d: int, n: int, rng: random.Random) -> CycMatrix:
    """Random exact Hermitian operator with zero trace and small entries."""
    dim = d ** n
    i_unit = zeta(4)
    rows = [[CycNumber.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = CycNumber.from_rational(Fraction(rng.randint(-3, 3)))
        for j in range(i + 1, dim):
            re = Fraction(rng.randint(-3, 3), 2)
            im = Fraction(rng.randint(-3, 3), 2)
            rows[i][j] = CycNumber.from_rational(re) + i_unit * im
            rows[j][i] = CycNumber.from_rational(re) - i_unit * im
    mat = CycMatrix(rows)
    tr = mat.trace().as_fraction()
    return mat - CycMatrix.identity(dim, Fraction(tr, dim))


def _is_additive_vertex(mat: CycMatrix, d: int, n: int) -> bool:
    det = detect_cnc_form(mat, d, n)
    if det is None:
        return False
    support, gamma = det
    if len(support) != d ** (2 * n):
        return False
    look = gamma.as_dict()
    pts = list(support)
    return all(look[a + b] == (look[a] + look[b]) % d for a in pts for b in pts)


SUITES = {
    "pauli": lambda d, n, rng: suite_pauli(d, n, rng),
    "stabilizer": lambda d, n, rng: suite_stabilizer(d, n, rng),
    "polytope": lambda d, n, rng: suite_polytope(d, n, rng),
    "hvm": lambda d, n, rng: suite_hvm(d, n, rng),
    "phi": lambda d, n, rng: suite_phi(d, rng),
}


def run_suite(name: str, d: int, n: int, seed: int = 0) -> list[dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {sorted(SUITES)}")
    rng = random.Random(seed)
    return SUITES[name](d, n, rng)
