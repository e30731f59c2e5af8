"""Hidden-variable model: decompositions, kernels, sampling, oracle agreement."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lambda_hvm import exact_lp, hvm
from lambda_hvm.checks import random_traceless
from lambda_hvm.cyclotomic import CycNumber
from lambda_hvm.hvm import (Circuit, CliffordOp, DecompositionInfeasible,
                            HiddenVariableModel, MeasureOp, StateDistribution,
                            TransitionKernel, VerificationError, VertexSetIncomplete, chi_square,
                            oracle_distribution, oracle_simulate, random_circuit,
                            run_shots, simulate_run, trace_with_projector,
                            verify_circuit_born)
from lambda_hvm.linalg import CycMatrix
from lambda_hvm.pauli import PhasePoint, clifford_generators, omega_power, pauli_matrix, phase_space
from lambda_hvm.polytope import (VertexInfo, VertexSet, coord_order, coords_key, enumerate_vertices,
                                 lambda_hrep, operator_coords, stabilizer_states)
from lambda_hvm.presets import preset_names, preset_state
from lambda_hvm.stabilizer import (IsotropicSubgroup, enumerate_isotropics,
                                   group_projector_matrix, value_assignments)
from tests_support import (random_full_matrix, reference_clifford_permutation,
                           reference_oracle_simulate, reference_run_shots,
                           reference_simulate_run, update)


@pytest.fixture(scope="module")
def qubit_model():
    return HiddenVariableModel(enumerate_vertices(lambda_hrep(2, 1)), mode="exact")


@pytest.fixture(scope="module")
def qutrit_model():
    return HiddenVariableModel(enumerate_vertices(lambda_hrep(3, 1)), mode="numeric")


@pytest.fixture(scope="module")
def qutrit_exact_model(qutrit_model):
    return HiddenVariableModel(qutrit_model.vset, mode="exact")


@pytest.fixture(scope="module")
def ququart_model():
    return HiddenVariableModel(enumerate_vertices(lambda_hrep(4, 1)), mode="numeric")


def line_groups(d, n=1):
    """The measurement groups <p> of the nonzero labels, in canonical order:
    the d + 1 lines at n = 1."""
    groups = {}
    for p in phase_space(d, n):
        if not p.is_zero():
            g = MeasureOp(p).group()
            groups.setdefault(g.key(), g)
    return [groups[k] for k in sorted(groups)]


def kernel_line(gi, kern):
    ents = sorted((beta, ri, w.serialize()) for (beta, ri), w in kern.entries.items())
    return repr((gi, kern.alpha, [m.serialize() for m in kern.marginals], ents))


# sha256 of the kernel_line table of all 324 exact d=3 kernels (81 vertices x
# 4 lines, line-major) on decomposition version 2: every post-state is a
# qutrit stabilizer state, decomposed in closed form as the orbit of its
# lowest-index face vertex.
QUTRIT_KERNEL_TABLE_SHA256 = "2a709b40cd96dbbc08f982980ed5ea892efcfef4dfeafac1050e6739fa55c3d6"


def z_measure(d):
    return MeasureOp(PhasePoint.unit_z(d, 1))


def test_presets_are_states():
    for (d, n) in ((2, 1), (3, 1)):
        for name in preset_names(d, n):
            rho = preset_state(name, d, n)
            assert rho.trace() == 1
            assert rho.is_hermitian()
            eigs = np.linalg.eigvalsh(rho.to_complex())
            assert eigs.min() > -1e-12


def test_decompose_point_mass(qubit_model):
    v = qubit_model.vset[5]
    dist = qubit_model.decompose(v.matrix)
    assert dist.weights == {5: Fraction(1)}


def test_decompose_mixed_and_magic(qubit_model):
    mixed = preset_state("mixed", 2, 1)
    dist = qubit_model.decompose(mixed)
    assert dist.reconstruct() == mixed
    for name in ("T", "H"):
        rho = preset_state(name, 2, 1)
        dist = qubit_model.decompose(rho)
        assert dist.reconstruct() == rho
        for w in dist.weights.values():
            sign = w > 0 if isinstance(w, Fraction) else w.sign() > 0
            assert sign


def test_decompose_infeasible_names_facet(qubit_model):
    bad = CycMatrix([[Fraction(3, 2), 0], [0, Fraction(-1, 2)]])
    with pytest.raises(DecompositionInfeasible) as err:
        qubit_model.decompose(bad)
    assert err.value.violated


def test_decompose_numeric_residual(qutrit_model):
    for name in ("strange", "norrell", "mixed"):
        rho = preset_state(name, 3, 1)
        dist = qutrit_model.decompose(rho)
        residual = np.max(np.abs(dist.reconstruct_complex() - rho.to_complex()))
        assert residual <= 1e-10
        assert abs(sum(float(w) for w in dist.weights.values()) - 1) < 1e-12


def test_clifford_update_examples(qubit_model):
    gens = clifford_generators(2, 1)
    h = next(g for g in gens if g.name == "F0")
    x = pauli_matrix(PhasePoint.unit_x(2, 1))
    z = pauli_matrix(PhasePoint.unit_z(2, 1))
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    ident = CycMatrix.identity(2)
    a0 = qubit_model.vset.lookup_matrix((ident + x + y + z).scale(Fraction(1, 2)))
    b0 = update(qubit_model, a0, h)
    assert qubit_model.vset[b0].matrix == (ident + x - y + z).scale(Fraction(1, 2))
    # identity leaves every vertex alone
    from lambda_hvm.pauli import clifford_from_matrix
    ident_gate = clifford_from_matrix(2, 1, ident, "I")
    perm = qubit_model.clifford_permutation(ident_gate)
    assert perm.tolist() == list(range(len(qubit_model.vset)))
    # each generator acts as a permutation
    for g in gens:
        perm = qubit_model.clifford_permutation(g)
        assert sorted(perm.tolist()) == list(range(len(qubit_model.vset)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clifford_permutations_equal_the_dense_reference(request, d):
    vset = request.getfixturevalue({2: "qubit_model", 3: "qutrit_model", 4: "ququart_model"}[d]).vset
    model = HiddenVariableModel(vset)
    for g in clifford_generators(d, 1):
        for u in (g, g.compose(g), g.inverse()):
            reference = reference_clifford_permutation(vset, u)
            perm = model.clifford_permutation(u)
            assert perm.tolist() == [reference[a] for a in range(len(vset))]
            assert perm.dtype == np.intp and not perm.flags.writeable
            assert model.clifford_permutation(u) is perm
    assert model.stats["perm_misses"] == 3 * len(clifford_generators(d, 1))


@pytest.mark.parametrize("d", [3, 4])
def test_vertex_set_numeric_views(request, d):
    """float_coords is, bit for bit, the coordinate matrix the numeric
    decomposition used to build per model; complex_matrices[i] is vertex i's
    matrix as complex."""
    vset = request.getfixturevalue({3: "qutrit_model", 4: "ququart_model"}[d]).vset
    per_model = np.array([[c.approx().real for c in v.coords] for v in vset.vertices], dtype=float).T
    assert vset.float_coords.shape == per_model.shape
    assert vset.float_coords.tobytes() == per_model.tobytes()
    assert len(vset.complex_matrices) == len(vset)
    for v, mat in zip(vset, vset.complex_matrices):
        expected = v.matrix.to_complex()
        assert mat.dtype == expected.dtype and mat.tobytes() == expected.tobytes()


def _reindexed(hrep, vertices):
    return VertexSet(hrep, [VertexInfo(i, v.matrix, v.coords, v.certificate)
                            for i, v in enumerate(vertices)])


def test_clifford_permutation_of_an_incomplete_vertex_set_raises(qubit_model):
    vset = qubit_model.vset
    h = next(g for g in clifford_generators(2, 1) if g.name == "F0")
    moved = next(a for a, b in enumerate(qubit_model.clifford_permutation(h)) if a != b)
    cube_minus_one = _reindexed(vset.hrep, [v for v in vset if v.index != moved])
    with pytest.raises(VertexSetIncomplete, match="not in the vertex set"):
        HiddenVariableModel(cube_minus_one).clifford_permutation(h)


def test_clifford_permutation_on_a_repeated_vertex_is_not_a_bijection(qubit_model):
    vset = qubit_model.vset
    repeated = _reindexed(vset.hrep, [*vset, vset[0]])
    for g in clifford_generators(2, 1):
        with pytest.raises(VertexSetIncomplete, match="not a bijection"):
            HiddenVariableModel(repeated).clifford_permutation(g)


def test_kernel_structure(qubit_model):
    x = pauli_matrix(PhasePoint.unit_x(2, 1))
    z = pauli_matrix(PhasePoint.unit_z(2, 1))
    y = pauli_matrix(PhasePoint(2, 1, (1,), (1,)))
    ident = CycMatrix.identity(2)
    a0 = qubit_model.vset.lookup_matrix((ident + x + y + z).scale(Fraction(1, 2)))
    group = z_measure(2).group()
    kern = qubit_model.kernel(a0, group)
    zlab = PhasePoint.unit_z(2, 1)
    idx0 = next(i for i, r in enumerate(kern.assignments) if r(zlab) == 0)
    assert kern.marginals[idx0] == 1
    assert kern.marginals[1 - idx0] == 0
    post = None
    for beta, q in kern.branch(idx0):
        term = qubit_model.vset[beta].matrix.scale(q)
        post = term if post is None else post + term
    assert post == CycMatrix([[1, 0], [0, 0]])
    # trivial measurement: identity projector keeps the vertex
    triv = IsotropicSubgroup.trivial(2, 1)
    kt = qubit_model.kernel(a0, triv)
    assert dict(kt.branch(0)) == {a0: 1}


def test_kernel_stores_a_numpy_vertex_index_as_an_int(qubit_model):
    """A numpy integer vertex index is cached as a Python int: the kernel's
    alpha is an int and a later call with the plain int is a hit."""
    model = HiddenVariableModel(qubit_model.vset, mode="exact")
    group = z_measure(2).group()
    kern = model.kernel(np.intp(3), group)
    assert type(kern.alpha) is int and kern.alpha == 3
    assert all(type(alpha) is int for _, alpha in model._kernels)
    hits = model.stats["kernel_hits"]
    assert model.kernel(3, group) is kern
    assert model.stats["kernel_hits"] == hits + 1


def test_decompositions_are_memoised_per_model(monkeypatch, qubit_model, qutrit_model):
    lp_calls = []
    solve_lp = hvm.feasible_point
    monkeypatch.setattr(hvm, "feasible_point", lambda rows, b: lp_calls.append(1) or solve_lp(rows, b))
    model = HiddenVariableModel(qubit_model.vset, mode="exact")
    rho = preset_state("T", 2, 1)
    first = model.decompose(rho)
    again = model.decompose(rho)
    assert len(lp_calls) == 1 and again.weights == first.weights
    HiddenVariableModel(qubit_model.vset, mode="exact").decompose(rho)
    assert len(lp_calls) == 2  # the memo is per model

    numeric = HiddenVariableModel(qutrit_model.vset, mode="numeric")
    nnls_calls = []
    solve = numeric._decompose_numeric
    monkeypatch.setattr(numeric, "_decompose_numeric",
                        lambda rho, coords: nnls_calls.append(1) or solve(rho, coords))
    strange = preset_state("strange", 3, 1)
    assert numeric.decompose(strange).weights == numeric.decompose(strange).weights
    assert len(nnls_calls) == 1


def test_memoised_decomposition_is_not_shared_with_callers(qubit_model):
    model = HiddenVariableModel(qubit_model.vset, mode="exact")
    rho = preset_state("T", 2, 1)
    dist = model.decompose(rho)
    expected = dict(dist.weights)
    dist.weights.clear()
    dist.weights[0] = Fraction(1)
    again = model.decompose(rho)
    assert again.weights == expected and again.weights is not dist.weights
    assert again.reconstruct() == rho


def test_shared_model_kernels_equal_fresh_model_kernels(qutrit_exact_model):
    # A shared model answers later requests from decompositions memoised by
    # earlier ones; each must equal the kernel a fresh model computes.
    groups = line_groups(3)
    rng = random.Random("hvm/memo/kernels")
    pairs = [(alpha, gi) for gi in range(len(groups))
             for alpha in rng.sample(range(len(qutrit_exact_model.vset)), 3)]
    rng.shuffle(pairs)
    shared = HiddenVariableModel(qutrit_exact_model.vset, mode="exact")
    from_shared = [kernel_line(gi, shared.kernel(alpha, groups[gi])) for alpha, gi in pairs]
    for (alpha, gi), line in zip(pairs, from_shared):
        fresh = HiddenVariableModel(qutrit_exact_model.vset, mode="exact")
        assert kernel_line(gi, fresh.kernel(alpha, groups[gi])) == line


def test_kernels_share_each_groups_value_assignments(qutrit_exact_model):
    # Kernels on one line hold one assignments tuple, across models and for
    # an equal group built again; each assignment reads what it read before.
    vset = qutrit_exact_model.vset
    point = PhasePoint.unit_z(3, 1)
    group = MeasureOp(point).group()
    rebuilt = IsotropicSubgroup.from_generators(3, 1, [point])
    assert rebuilt is not group
    first = HiddenVariableModel(vset, mode="exact").kernel(0, group)
    second = HiddenVariableModel(vset, mode="exact").kernel(5, rebuilt)
    assert first.assignments is second.assignments
    expected = value_assignments(group)
    assert len(first.assignments) == len(expected) == 3
    for r, ref in zip(first.assignments, expected):
        assert [r(p) for p in group] == [ref(p) for p in group]
    assert sorted(r(point) for r in first.assignments) == [0, 1, 2]


def test_qutrit_kernel_table_is_pinned(qutrit_exact_model):
    model = qutrit_exact_model
    lines = [kernel_line(gi, model.kernel(alpha, group))
             for gi, group in enumerate(line_groups(3)) for alpha in range(len(model.vset))]
    assert len(lines) == 324
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == QUTRIT_KERNEL_TABLE_SHA256


# sha256 of numeric_path_lines: the float reprs of 40 seeded numeric kernels
# at each of d=3 and d=4, and the verify_circuit_born reports of 6 seeded
# numeric circuits (3 at each d), recorded before the two modes shared the
# kernel and Born-check loops.
NUMERIC_PATH_SHA256 = "30d1ce01fa25541c497646f74e0534a843ad55b76db069fc80499888a8906dd3"


def numeric_path_lines(vsets):
    lines = []
    for vset in vsets:
        d = vset.d
        model = HiddenVariableModel(vset, mode="numeric")
        rng = random.Random(f"numeric-path/{d}")
        groups = line_groups(d)
        for _ in range(40):
            alpha, gi = rng.randrange(len(vset)), rng.randrange(len(groups))
            kern = model.kernel(alpha, groups[gi])
            lines.append(repr((d, alpha, gi, kern.marginals, sorted(kern.entries.items()))))
        gates = clifford_generators(d, 1)
        states = [preset_state(name, d, 1) for name in preset_names(d, 1)[-2:]]
        states.append(vset[rng.randrange(len(vset))].matrix)
        for c, state in enumerate(states):
            circ = random_circuit(d, 1, 4, rng, gates, state)
            lines.append(repr((d, c, sorted(verify_circuit_born(circ, model).items()))))
    return lines


def test_numeric_kernels_and_born_reports_are_pinned(qutrit_model, ququart_model):
    lines = numeric_path_lines([qutrit_model.vset, ququart_model.vset])
    assert len(lines) == 86
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == NUMERIC_PATH_SHA256



def test_kernels_of_a_model_share_one_object_per_weight(qutrit_model):
    # every marginal and weight the model's kernels store is its one interned
    # CycNumber for that (order, num, den); a second model interns its own
    def stored(model):
        kerns = [model.kernel(alpha, group) for group in line_groups(3)
                 for alpha in range(len(model.vset))]
        return [x for k in kerns for x in (*k.marginals, *k.entries.values())]

    model = HiddenVariableModel(qutrit_model.vset, mode="exact")
    values = stored(model)
    by_key: dict = {}
    for x in values:
        assert type(x) is CycNumber
        by_key.setdefault((x.order, x.num, x.den), set()).add(id(x))
    assert all(len(ids) == 1 for ids in by_key.values())
    assert len(by_key) < len(values) // 10
    other = stored(HiddenVariableModel(qutrit_model.vset, mode="exact"))
    assert [x.serialize() for x in other] == [x.serialize() for x in values]
    assert not {id(x) for x in other} & {id(x) for x in values}
    assert not hasattr(model.kernel(0, line_groups(3)[0]), "__dict__")

def test_kernel_normalization_and_marginals(qutrit_model):
    rng = random.Random(1)
    from lambda_hvm.hvm import trace_with_projector
    for _ in range(5):
        alpha = rng.randrange(len(qutrit_model.vset))
        group = z_measure(3).group()
        kern = qutrit_model.kernel(alpha, group)
        assert abs(sum(float(w) for w in kern.entries.values()) - 1) < 1e-9
        # marginal equals the trace formula
        for ri, r in enumerate(kern.assignments):
            t = trace_with_projector(group, r, qutrit_model.vset[alpha].matrix)
            assert abs(float(kern.marginals[ri]) - float(t)) < 1e-12


# -- label-space marginals and rank-one post-states against the dense forms ---


def _key(x):
    return (x.order, x.num, x.den)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_label_space_marginals_equal_the_dense_trace(request, d):
    # every (vertex, line, outcome): 48, 972 and 7680 of them at d = 2, 3, 4
    vset = request.getfixturevalue({2: "qubit_model", 3: "qutrit_model", 4: "ququart_model"}[d]).vset
    coefficients = vset.label_index[1]
    checked = 0
    for group in line_groups(d):
        for r, terms in zip(value_assignments(group), hvm._marginal_terms(group)):
            for v, xs in zip(vset, coefficients):
                t = hvm._label_sum(group, terms, xs)
                assert _key(t) == _key(trace_with_projector(group, r, v.matrix))
                checked += 1
    assert checked == {2: 48, 3: 972, 4: 7680}[d]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_one_post_state_is_the_projector(request, d):
    # for a maximal group the post-state Pi A Pi / t has the coordinates of
    # Pi itself, so the kernel decomposes the same operator either way
    vset = request.getfixturevalue({2: "qubit_model", 3: "qutrit_model", 4: "ququart_model"}[d]).vset
    checked = 0
    for group in line_groups(d):
        if not group.is_maximal():
            continue
        for r in value_assignments(group):
            proj = group_projector_matrix(group, r)
            want = [_key(x) for x in operator_coords(proj, d)]
            for v in vset:
                t = trace_with_projector(group, r, v.matrix)
                if t.sign() > 0:
                    post = (proj @ v.matrix @ proj).scale(t.inverse())
                    assert [_key(x) for x in operator_coords(post, d)] == want
                    checked += 1
    assert checked > len(vset)


def _random_hermitian(dim, order, rng):
    m = random_full_matrix(dim, order, rng)
    return m + m.dagger()


@pytest.mark.parametrize("d, n", [(5, 1), (2, 2)])
def test_maximal_projectors_have_rank_one(d, n):
    # Pi X Pi = Tr(Pi X) Pi for every maximal group and random Hermitian X
    rng = random.Random(f"hvm/rank-one/{d}/{n}")
    order = coord_order(d)
    xs = [_random_hermitian(d ** n, order, rng) for _ in range(2)]
    for group in enumerate_isotropics(d, n, only_maximal=True):
        for r in value_assignments(group):
            proj = group_projector_matrix(group, r)
            for x in xs:
                assert proj @ x @ proj == proj.scale(trace_with_projector(group, r, x))


def test_an_order_two_group_at_d4_is_not_rank_one():
    # the dense post-state path stays for groups that are not maximal
    group = MeasureOp(PhasePoint(4, 1, (2,), (0,))).group()
    assert not group.is_maximal()
    x = _random_hermitian(4, coord_order(4), random.Random("hvm/rank-two"))
    r = value_assignments(group)[0]
    proj = group_projector_matrix(group, r)
    assert proj @ x @ proj != proj.scale(trace_with_projector(group, r, x))


def _born_cases(d, n):
    """Stabilizer states (the first 60 at n = 2), the presets and three
    seeded random trace-one Hermitian operators."""
    rng = random.Random(f"hvm/born/{d}/{n}")
    dim = d ** n
    states = [s.matrix for s in stabilizer_states(d, n)[:60]]
    states += [preset_state(name, d, n) for name in preset_names(d, n)]
    mixed = CycMatrix.identity(dim, Fraction(1, dim))
    states += [mixed + random_traceless(d, n, rng).scale(Fraction(1, 8 * dim)) for _ in range(3)]
    return states


@pytest.mark.parametrize("d, n, count", [(2, 1, 78), (3, 1, 228), (4, 1, 990), (5, 1, 1050),
                                         (2, 2, 1950), (3, 2, 7800)])
def test_born_transition_equals_the_dense_rule(d, n, count):
    """The one Born rule against the dense one: label-sum probabilities equal
    the projector traces in (order, num, den), a maximal group's post-state
    is its cached projector, and every post-state equals Pi rho Pi / p (the
    order-2 lines at d = 4 and the single Paulis at n = 2 included)."""
    checked = 0
    for rho in _born_cases(d, n):
        for group in line_groups(d, n):
            probs, post = hvm._born_transition(group, rho, hvm._group_coefficients(group, rho))
            for ri, (r, p) in enumerate(zip(value_assignments(group), probs)):
                assert _key(p) == _key(trace_with_projector(group, r, rho))
                checked += 1
                if p.is_zero():
                    continue
                proj = group_projector_matrix(group, r)
                if group.is_maximal():
                    assert post(ri) is proj
                assert post(ri) == (proj @ rho @ proj).scale(p.inverse())
    assert checked == count


def test_kernels_share_entry_keys_and_marginal_tuples(qutrit_exact_model):
    # fresh models share the (beta, r_index) key objects; within a model,
    # kernels with equal marginals share one marginals tuple
    vset = qutrit_exact_model.vset
    group = line_groups(3)[1]
    first = HiddenVariableModel(vset, mode="exact").kernel(7, group)
    second = HiddenVariableModel(vset, mode="exact").kernel(7, group)
    assert first is not second and list(first.entries) == list(second.entries)
    assert all(a is b for a, b in zip(first.entries, second.entries))
    for mode in ("exact", "numeric"):
        model = HiddenVariableModel(vset, mode=mode)
        tuples: dict = {}
        for alpha in range(len(vset)):
            marginals = model.kernel(alpha, group).marginals
            tuples.setdefault(repr(marginals), set()).add(id(marginals))
        assert all(len(ids) == 1 for ids in tuples.values()) and len(tuples) < len(vset) // 10


def _entries_repr(kern):
    return repr([(k, w if isinstance(w, float) else w.serialize()) for k, w in kern.entries.items()])


def test_kernels_of_a_model_share_equal_entries(qutrit_exact_model):
    # within a model, kernels with equal entries share one read-only mapping,
    # in both modes; a fresh model builds its own
    vset = qutrit_exact_model.vset
    for mode in ("exact", "numeric"):
        model = HiddenVariableModel(vset, mode=mode)
        kerns = [model.kernel(alpha, group) for group in line_groups(3) for alpha in range(len(vset))]
        mappings: dict = {}
        for kern in kerns:
            mappings.setdefault(_entries_repr(kern), set()).add(id(kern.entries))
        assert all(len(ids) == 1 for ids in mappings.values()) and len(mappings) < len(kerns) // 10
        with pytest.raises(TypeError):
            kerns[0].entries[(0, 0)] = kerns[0].marginals[0]
        fresh = HiddenVariableModel(vset, mode=mode).kernel(kerns[0].alpha, kerns[0].group)
        assert fresh.entries == kerns[0].entries and fresh.entries is not kerns[0].entries


def test_label_action_of_a_pauli_conjugation():
    # T_a T_b T_a^dag = omega^{[a, b]} T_b: the phases the closed form reads
    for d in (2, 3, 4, 5):
        points = list(phase_space(d, 1))
        for a in points:
            group = IsotropicSubgroup.from_generators(d, 1, [a])
            for elem, phases in zip(group, hvm._conjugation_phases(group)):
                ta = pauli_matrix(elem)
                for b, k in zip(points, phases):
                    tb = pauli_matrix(b)
                    assert ta @ tb @ ta.dagger() == tb.scale(omega_power(d, k))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stabilizer_states_decompose_in_closed_form(d, qubit_model, qutrit_model, ququart_model):
    """Every pure stabilizer state at n = 1 is the I-average of the Pauli
    images of its lowest-index face vertex: the model finds it with no LP,
    with support d, and it reconstructs the state exactly."""
    vset = {2: qubit_model, 3: qutrit_model, 4: ququart_model}[d].vset
    model = HiddenVariableModel(vset, mode="exact")
    states = stabilizer_states(d, 1)
    lp_before = dict(exact_lp.stats)
    for proj in states:
        dist = model.decompose(proj.matrix)
        assert dist.reconstruct() == proj.matrix
        assert len(dist.weights) == d and sum(dist.weights.values()) == 1
        group, face = vset.stabilizer_faces[coords_key(operator_coords(proj.matrix, d), d)]
        assert group is proj.group and len(group) == d
        assert all(vset.certificate_masks[beta] & face == face for beta in dist.weights)
    assert exact_lp.stats == lp_before
    assert model.stats["decompose_closed_form"] == len(states) == {2: 6, 3: 12, 4: 28}[d]
    assert model.stats["decompose_lp"] == 0
    # equal matrices built elsewhere take the same path to the same weights
    other = HiddenVariableModel(vset, mode="exact")
    for proj in states:
        rebuilt = CycMatrix([list(row) for row in proj.matrix.data])
        assert other.decompose(rebuilt).weights == model.decompose(proj.matrix).weights
    assert exact_lp.stats == lp_before


def _off_face_masks(vset, face):
    """Certificate masks under which the first vertex that seems to lie on
    the face is the first vertex off it."""
    return tuple(0 if m & face == face else face for m in vset.certificate_masks)


def test_closed_form_from_a_vertex_off_the_face_fails_reconstruction(qutrit_model):
    vset = qutrit_model.vset
    for proj in stabilizer_states(3, 1):
        mutant = VertexSet(vset.hrep, vset.vertices)
        _, face = mutant.stabilizer_faces[coords_key(operator_coords(proj.matrix, 3), 3)]
        mutant.certificate_masks = _off_face_masks(vset, face)
        with pytest.raises(VerificationError, match="failed to reconstruct"):
            HiddenVariableModel(mutant, mode="exact").decompose(proj.matrix)


def test_closed_form_needs_the_face_vertex_and_its_images(qubit_model):
    vset = qubit_model.vset
    proj = stabilizer_states(2, 1)[0]
    key = coords_key(operator_coords(proj.matrix, 2), 2)
    cut = VertexSet(vset.hrep, vset.vertices)
    _, face = cut.stabilizer_faces[key]
    cut.certificate_masks = tuple(0 for _ in vset.vertices)
    with pytest.raises(VertexSetIncomplete, match="minimal face"):
        HiddenVariableModel(cut, mode="exact").decompose(proj.matrix)
    alpha = next(i for i, m in enumerate(vset.certificate_masks) if m & face == face)
    cut = VertexSet(vset.hrep, vset.vertices)
    cut.label_index = (*vset.label_index[:2], {k: i for k, i in vset.label_index[2].items() if i == alpha})
    with pytest.raises(VertexSetIncomplete, match="Pauli image of vertex"):
        HiddenVariableModel(cut, mode="exact").decompose(proj.matrix)


def test_oracle_examples():
    zero = preset_state("zero", 2, 1)
    circ = Circuit(2, 1, zero, "zero", (z_measure(2),))
    branches = oracle_simulate(circ)
    assert len(branches) == 1
    assert branches[0].outcomes == (0,) and branches[0].probability == 1
    assert branches[0].state == zero

    gens = clifford_generators(2, 1)
    h = next(g for g in gens if g.name == "F0")
    circ2 = Circuit(2, 1, zero, "zero", (CliffordOp(h, "H"), z_measure(2)))
    dist = oracle_distribution(circ2)
    assert abs(dist[(0,)] - 0.5) < 1e-15 and abs(dist[(1,)] - 0.5) < 1e-15

    zero3 = preset_state("zero", 3, 1)
    circ3 = Circuit(3, 1, zero3, "zero", (MeasureOp(PhasePoint.unit_x(3, 1)),))
    dist3 = oracle_distribution(circ3)
    assert len(dist3) == 3
    assert all(abs(p - 1 / 3) < 1e-14 for p in dist3.values())


def _branch_lines(branches):
    return [(br.outcomes, br.probability.serialize()) for br in branches]


def _assert_oracle_equals_reference(circ):
    """oracle_simulate gives the reference loop's branches in order, with
    their probabilities bit for bit and their states equal in value, and
    oracle_distribution its per-outcome float sums, bit for bit.

    States are compared by value: a rank-one post-state is the cached
    projector, which equals the reference's Pi rho Pi / p but may declare
    its entries at another cyclotomic order (4; 1, 0 against 24; 1, 0, ...)."""
    expected = reference_oracle_simulate(circ)
    got = oracle_simulate(circ)
    assert _branch_lines(got) == _branch_lines(expected)
    assert all(br.state == ref.state for br, ref in zip(got, expected))
    sums: dict = {}
    for br in expected:
        sums[br.outcomes] = sums.get(br.outcomes, 0.0) + br.prob_float()
    got = oracle_distribution(circ)
    assert list(got) == list(sums)
    assert [p.hex() for p in got.values()] == [p.hex() for p in sums.values()]
    return expected


def test_oracle_equals_reference_loop_on_job_panel():
    """The 100 depth-8 d=2 circuits of the job-exact-d2 benchmark panel."""
    gens = clifford_generators(2, 1)
    states = {name: preset_state(name, 2, 1) for name in ("T", "H")}
    total = 0
    for j in range(100):
        name = "T" if j % 2 == 0 else "H"
        circ = random_circuit(2, 1, 8, random.Random(f"job-exact-d2/job/{j}"), gens, states[name], name)
        total += len(_assert_oracle_equals_reference(circ))
    assert total == 8800


@pytest.mark.parametrize("d,state", [(3, "strange"), (3, "norrell"), (3, "zero"), (4, "zero")])
def test_oracle_equals_reference_loop_with_pruning(d, state):
    """Seeded depth-4 circuits whose zero-probability outcomes are pruned."""
    gens = clifford_generators(d, 1)
    rho = preset_state(state, d, 1)
    pruned = False
    for k in range(6):
        circ = random_circuit(d, 1, 4, random.Random(f"oracle/{d}/{state}/{k}"), gens, rho, state)
        branches = _assert_oracle_equals_reference(circ)
        pruned = pruned or len(branches) < d ** circ.measurement_count()
    assert pruned


def test_oracle_equals_reference_loop_on_states_equal_but_for_denominators():
    """A classically correlated two-qubit input (|0><0| x s0 + |1><1| x s1)/2
    with s0 = [[1/2, 1/4], [1/4, 1/2]] and s1 = |+><+|.  Measuring Z1 then
    X1 leaves branches |+><+| x s0 and |+><+| x s1 side by side, whose
    entries differ only in their denominators; X2 then has two outcomes on
    one and one on the other.  The branch probabilities 1/16 and 1/4 share
    their numerators."""
    q = Fraction(1, 4)
    rho = CycMatrix([[q, q / 2, 0, 0], [q / 2, q, 0, 0], [0, 0, q, q], [0, 0, q, q]])
    points = (PhasePoint.unit_z(2, 2, 0), PhasePoint.unit_x(2, 2, 0), PhasePoint.unit_x(2, 2, 1))
    circ = Circuit(2, 2, rho, "custom", tuple(MeasureOp(p) for p in points))
    branches = _assert_oracle_equals_reference(circ)
    assert [(br.outcomes, br.probability) for br in branches[-3:]] == [
        ((0, 1, 1), Fraction(1, 16)), ((1, 0, 0), q), ((1, 1, 0), q)]


def test_oracle_state_key_keeps_order_numerators_and_denominators():
    """Keys tell apart matrices whose entries differ in any one part of their
    exact representation, the declared order of equal values included.
    Every branch of one layer has the same entry orders, so no circuit
    shows the order part."""
    def key(off, order=1):
        half = CycNumber.from_rational(Fraction(1, 2), order)
        off = CycNumber.from_rational(off, order)
        return hvm._state_key(CycMatrix([[half, off], [off, half]]))

    base = key(Fraction(1, 4))
    assert base == key(Fraction(1, 4))
    assert len({base, key(Fraction(1, 4), order=2), key(Fraction(1, 2)), key(Fraction(3, 4))}) == 4


def test_oracle_stats_count_transitions_and_reuse():
    """T, then H and a Z measurement three times: the branches double at
    each measurement, but after the first one every op sees only two
    distinct states."""
    h = next(g for g in clifford_generators(2, 1) if g.name == "F0")
    ops = (CliffordOp(h, "H"), z_measure(2)) * 3
    circ = Circuit(2, 1, preset_state("T", 2, 1), "T", ops)
    before = dict(hvm.oracle_stats)
    branches = oracle_simulate(circ)
    delta = {k: hvm.oracle_stats[k] - before[k] for k in before}
    # branches entering each op: 1, 1, 2, 2, 4, 4; distinct states: 1, 1, 2, 2, 2, 2
    branch_layers = 14
    assert delta == {"transitions": 10, "reused": branch_layers - 10, "branches": len(branches)}
    assert len(branches) == 8


def test_verify_looks_each_kernel_up_once_per_layer(qubit_model):
    """One verify_circuit_born call makes one kernel call per support vertex
    of the walked distribution at each measurement."""
    rho = preset_state("T", 2, 1)
    circ = random_circuit(2, 1, 5, random.Random(31), clifford_generators(2, 1), rho, "T")
    # the walk verify_circuit_born takes, on a warm model
    support = set(qubit_model.decompose(rho).weights)
    state = rho
    expected = 0
    for op in circ.ops:
        if isinstance(op, CliffordOp):
            perm = qubit_model.clifford_permutation(op.element)
            support = {perm[a] for a in support}
            state = op.element.apply(state)
            continue
        expected += len(support)
        group = op.group()
        assignments = value_assignments(group)
        probs = [trace_with_projector(group, r, state) for r in assignments]
        ri = max(range(len(probs)), key=lambda i: (float(probs[i]), -i))
        support = {beta for a in support for beta, _ in qubit_model.kernel(a, group).branch(ri)}
        proj = group_projector_matrix(group, assignments[ri])
        state = (proj @ state @ proj).scale(probs[ri].inverse())
    model = HiddenVariableModel(qubit_model.vset, mode="exact")
    before = model.stats["kernel_hits"] + model.stats["kernel_misses"]
    verify_circuit_born(circ, model)
    assert model.stats["kernel_hits"] + model.stats["kernel_misses"] - before == expected
    assert expected > circ.measurement_count()


def test_circuit_validation():
    zero = preset_state("zero", 2, 1)
    with pytest.raises(ValueError):
        Circuit(2, 1, zero, "zero", (MeasureOp(PhasePoint.zero(2, 1)),))
    with pytest.raises(ValueError):
        Circuit(2, 1, preset_state("zero", 3, 1), "zero", ())


def test_exact_born_agreement_qubit(qubit_model):
    rng = random.Random(7)
    gens = clifford_generators(2, 1)
    for name in ("T", "H"):
        rho = preset_state(name, 2, 1)
        for _ in range(5):
            circ = random_circuit(2, 1, 3, rng, gens, rho, name)
            report = verify_circuit_born(circ, qubit_model)
            assert report["layers"] == 3
            assert report["max_prob_err"] == 0.0


def test_numeric_born_agreement_qutrit(qutrit_model):
    rng = random.Random(8)
    gens = clifford_generators(3, 1)
    for name in ("strange", "norrell"):
        rho = preset_state(name, 3, 1)
        for _ in range(4):
            circ = random_circuit(3, 1, 3, rng, gens, rho, name)
            report = verify_circuit_born(circ, qutrit_model)
            assert report["max_prob_err"] <= 1e-10
            assert report["max_state_err"] <= 1e-10


def test_zero_state_z_measurement_deterministic(qubit_model):
    zero = preset_state("zero", 2, 1)
    circ = Circuit(2, 1, zero, "zero", (z_measure(2),))
    dist = qubit_model.decompose(zero)
    for seed in range(40):
        rec = simulate_run(circ, qubit_model, dist, seed)
        assert rec.outcomes == (0,)


def test_simulation_statistics(qubit_model):
    rho = preset_state("T", 2, 1)
    circ = Circuit(2, 1, rho, "T", (z_measure(2),))
    dist = qubit_model.decompose(rho)
    shots = 30000
    records = run_shots(circ, qubit_model, dist, shots, seed=99)
    freq = sum(1 for r in records if r.outcomes[0] == 0) / shots
    expected = (1 + 3 ** -0.5) / 2
    sigma = (expected * (1 - expected) / shots) ** 0.5
    assert abs(freq - expected) < 5 * sigma


@pytest.mark.parametrize("d,state,mode", [
    (2, "T", "exact"), (2, "H", "exact"), (3, "strange", "exact"),
    (3, "norrell", "exact"), (4, "zero", "numeric")])
def test_compiled_shots_equal_reference_loop(request, d, state, mode):
    """run_shots gives the records of the op-by-op reference loop fed the
    same draw matrix, with kernels warm and the plan cold, on a cold model
    and on a warm rerun."""
    vset = request.getfixturevalue({2: "qubit_model", 3: "qutrit_model", 4: "ququart_model"}[d]).vset
    rho = preset_state(state, d, 1)
    circ = random_circuit(d, 1, 4, random.Random(f"{d}/{state}"), clifford_generators(d, 1), rho, state)
    shots, seed = 300, 11
    reference = HiddenVariableModel(vset, mode=mode)
    expected = reference_run_shots(circ, reference, reference.decompose(rho), shots, seed)
    assert len({(r.outcomes, r.final_vertex) for r in expected}) > 4
    # kernels warm, plan cold
    assert run_shots(circ, reference, reference.decompose(rho), shots, seed, threads=1) == expected
    model = HiddenVariableModel(vset, mode=mode)
    dist = model.decompose(rho)
    assert run_shots(circ, model, dist, shots, seed) == expected   # cold
    assert run_shots(circ, model, dist, shots, seed) == expected   # warm


def test_shot_records_are_prefix_stable(qubit_model):
    """Record k depends only on row k of the draws: a shorter run is the
    start of a longer one with the same seed."""
    rho = preset_state("T", 2, 1)
    circ = random_circuit(2, 1, 4, random.Random(41), clifford_generators(2, 1), rho, "T")
    dist = qubit_model.decompose(rho)
    assert run_shots(circ, qubit_model, dist, 100, 5) == run_shots(circ, qubit_model, dist, 300, 5)[:100]
    assert simulate_run(circ, qubit_model, dist, 5) == run_shots(circ, qubit_model, dist, 300, 5)[0]


@pytest.mark.parametrize("count,width,d", [
    (0, 3, 4), (25, 0, 4), (1, 2, 3), (500, 1, 2), (2500, 3, 4), (300, 40, 4), (200, 6, 7)])
def test_shared_rows_equal_plain_tuples(count, width, d):
    """The record builder's outcome rows equal one tuple per row, with one
    object per distinct row.  Most rows repeat one of seven that differ only
    in their last column, where at d=4 with 40 columns a mixed-radix int64
    code of a row would wrap to the same value."""
    rng = np.random.default_rng(1000 * count + width)
    pool = np.repeat(rng.integers(0, d, (1, width)), 7, axis=0)
    if width:
        pool[:, -1] = np.arange(7) % d
    outcomes = pool[rng.integers(0, len(pool), count)].astype(np.intp)
    outcomes[::5] = rng.integers(0, d, outcomes[::5].shape)
    expected = list(map(tuple, outcomes.tolist()))
    for layout in (outcomes, np.asfortranarray(outcomes)):
        rows = hvm._shared_rows(layout)
        assert rows == expected
        assert all(type(x) is int for row in rows for x in row)
        assert len({id(row) for row in rows}) == len(set(rows))


def test_shot_records_share_outcome_tuples_and_hold_ints(qutrit_model):
    """Shots with equal outcomes share one tuple; every field is a Python
    int, so the repr names no numpy type."""
    model = HiddenVariableModel(qutrit_model.vset, mode="numeric")
    rho = preset_state("strange", 3, 1)
    circ = random_circuit(3, 1, 4, random.Random(17), clifford_generators(3, 1), rho, "strange")
    records = run_shots(circ, model, model.decompose(rho), 2000, seed=3)
    assert 1 < len({id(r.outcomes) for r in records}) == len({r.outcomes for r in records}) < 2000
    assert [r.shot for r in records] == list(range(2000))
    assert all(type(r.shot) is type(r.final_vertex) is int for r in records)
    assert all(type(x) is int for r in records for x in r.outcomes)
    first = records[0]
    assert repr(first) == (f"ShotRecord(shot=0, outcomes={first.outcomes!r}, "
                           f"final_vertex={first.final_vertex!r})")


def test_shot_record_fields_repr_and_tuple_equality():
    """A record keeps its three fields, in order, and its repr; as a
    NamedTuple it also equals the plain tuple of its fields."""
    rec = hvm.ShotRecord(3, (0, 2), 17)
    assert hvm.ShotRecord._fields == ("shot", "outcomes", "final_vertex")
    assert repr(rec) == "ShotRecord(shot=3, outcomes=(0, 2), final_vertex=17)"
    assert rec == (3, (0, 2), 17) and hash(rec) == hash((3, (0, 2), 17))
    assert (rec.shot, rec.outcomes, rec.final_vertex) == (3, (0, 2), 17)


@pytest.mark.parametrize("shots,seed,threads", [(10, 1, 2), (-1, 1, None), (10, -1, 1)])
def test_run_shots_rejects_bad_arguments(qubit_model, shots, seed, threads):
    """All shots run in one batch, so only threads=None or 1 is accepted."""
    rho = preset_state("T", 2, 1)
    circ = Circuit(2, 1, rho, "T", (z_measure(2),))
    with pytest.raises(ValueError):
        run_shots(circ, qubit_model, qubit_model.decompose(rho), shots, seed, threads=threads)


def test_sampling_ties_zero_weights_and_rounding_tail(qubit_model):
    """Draws that equal a running sum, zero-weight items and draws at or
    above the total pick what the reference loop picks, in the input
    distribution and in a kernel.

    Each sums to 3/4, below the draws in the rounding tail.  The weights are
    listed out of order, so the running sums must follow the sorted keys.
    """
    model = HiddenVariableModel(qubit_model.vset, mode="numeric")
    op = MeasureOp(PhasePoint.unit_z(2, 1))
    group = op.group()
    for alpha, (hi, zero, mid) in ((4, (6, 1, 3)), (2, (7, 0, 2))):
        entries = {(hi, 1): 0.25, (zero, 1): 0.0, (mid, 0): 0.5, (5, 0): 0.0}
        model._kernels[(group.key(), alpha)] = TransitionKernel(
            alpha, group, tuple(value_assignments(group)), entries, (0.75, 0.0))
    p_in = StateDistribution(model.vset, {4: 0.5, 0: 0.0, 2: 0.25}, "numeric")
    circ = Circuit(2, 1, preset_state("zero", 2, 1), "zero", (op,))
    draws = (0.0, 0.25, 0.5, 0.6, 0.75, 0.9)
    rows = [(u, v) for u in draws for v in draws]
    expected = [reference_simulate_run(circ, model, p_in, SimpleNamespace(random=iter(row).__next__), k)
                for k, row in enumerate(rows)]
    assert {r.final_vertex for r in expected} == {2, 3, 6, 7}
    assert hvm._sample_batch(circ, model, p_in, np.array(rows)) == expected


def test_warm_rerun_fills_nothing(qutrit_model):
    """A second run of the same shots fills no table row and makes no
    kernel or decompose call or permutation miss: it moves only the shots,
    once per run, and the permutation hits, once per Clifford op."""
    model = HiddenVariableModel(qutrit_model.vset, mode="numeric")
    rho = preset_state("strange", 3, 1)
    circ = random_circuit(3, 1, 3, random.Random(21), clifford_generators(3, 1), rho, "strange")
    dist = model.decompose(rho)
    first = run_shots(circ, model, dist, 400, seed=4)
    stats = dict(model.stats)
    assert stats["table_fills"] > 0
    assert stats["kernel_hits"] + stats["kernel_misses"] == stats["table_fills"]
    assert stats["perm_misses"] == len({id(op.element) for op in circ.ops if isinstance(op, CliffordOp)})
    assert stats["decompose_misses"] >= 1 and stats["shots"] == 400
    cliffords = sum(isinstance(op, CliffordOp) for op in circ.ops)
    assert run_shots(circ, model, dist, 400, seed=4) == first
    assert model.stats == {**stats, "shots": stats["shots"] + 400,
                           "perm_hits": stats["perm_hits"] + cliffords}
    stats = dict(model.stats)
    model.decompose(rho)
    assert model.stats == {**stats, "decompose_hits": stats["decompose_hits"] + 1}
    model.kernel(0, circ.ops[1].group())
    stats = dict(model.stats)
    model.kernel(0, circ.ops[1].group())
    assert model.stats == {**stats, "kernel_hits": stats["kernel_hits"] + 1}


def test_sampled_circuit_is_not_retained(qutrit_model):
    """The model keeps its kernels, permutations and tables, but no
    reference to a circuit it sampled."""
    model = HiddenVariableModel(qutrit_model.vset, mode="numeric")
    rho = preset_state("strange", 3, 1)
    circ = random_circuit(3, 1, 3, random.Random(22), clifford_generators(3, 1), rho, "strange")
    ref = weakref.ref(circ)
    run_shots(circ, model, model.decompose(rho), 50, seed=1)
    del circ
    gc.collect()
    assert ref() is None


CORRUPTED_MODEL_SCRIPT = textwrap.dedent("""
    from lambda_hvm.hvm import (Circuit, HiddenVariableModel, MeasureOp, StateDistribution,
                                VerificationError, verify_circuit_born)
    from lambda_hvm.pauli import PhasePoint
    from lambda_hvm.polytope import enumerate_vertices, lambda_hrep
    from lambda_hvm.presets import preset_state

    assert False, "asserts must be stripped: run under python -O"
""")


def _corrupted_check(body: str) -> str:
    """Run body after the set-up script under python -O; return its output."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_MODEL_SCRIPT + textwrap.dedent(body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_checks_survive_python_optimize():
    """A corrupted model fails the Born (exact and numeric), normalization
    and closed-form reconstruction checks under -O."""
    born = _corrupted_check("""
        vset = enumerate_vertices(lambda_hrep(2, 1))
        model = HiddenVariableModel(vset, mode="exact")
        rho = preset_state("T", 2, 1)
        op = MeasureOp(PhasePoint.unit_z(2, 1))
        for alpha in model.decompose(rho).weights:
            kern = model.kernel(alpha, op.group())
            kern.marginals = kern.marginals[::-1]
        try:
            verify_circuit_born(Circuit(2, 1, rho, "T", (op,)), model)
        except VerificationError as exc:
            print(exc)
    """)
    assert born == "Born aggregate differs from the oracle"
    numeric_born = _corrupted_check("""
        vset = enumerate_vertices(lambda_hrep(3, 1))
        model = HiddenVariableModel(vset, mode="numeric")
        rho = preset_state("strange", 3, 1)
        op = MeasureOp(PhasePoint.unit_z(3, 1))
        for alpha in model.decompose(rho).weights:
            kern = model.kernel(alpha, op.group())
            kern.marginals = kern.marginals[::-1]
        try:
            verify_circuit_born(Circuit(3, 1, rho, "strange", (op,)), model)
        except VerificationError as exc:
            print(exc)
    """)
    prefix = "Born aggregate off by "
    assert numeric_born.startswith(prefix) and float(numeric_born[len(prefix):]) > 0.1
    kernel = _corrupted_check("""
        vset = enumerate_vertices(lambda_hrep(2, 1))
        model = HiddenVariableModel(vset, mode="exact")
        exact_decompose = model.decompose

        def doubled(rho):
            dist = exact_decompose(rho)
            return StateDistribution(vset, {a: 2 * w for a, w in dist.weights.items()}, "exact")

        model.decompose = doubled
        try:
            model.kernel(0, MeasureOp(PhasePoint.unit_z(2, 1)).group())
        except VerificationError as exc:
            print(exc)
    """)
    assert kernel == "kernel normalization failed"
    off_face = _corrupted_check("""
        from lambda_hvm.hvm import VerificationError
        from lambda_hvm.polytope import VertexSet, coords_key, operator_coords, stabilizer_states
        vset = enumerate_vertices(lambda_hrep(3, 1))
        for proj in stabilizer_states(3, 1):
            mutant = VertexSet(vset.hrep, vset.vertices)
            _, face = mutant.stabilizer_faces[coords_key(operator_coords(proj.matrix, 3), 3)]
            mutant.certificate_masks = tuple(0 if m & face == face else face
                                             for m in vset.certificate_masks)
            try:
                HiddenVariableModel(mutant, mode="exact").decompose(proj.matrix)
            except VerificationError as exc:
                print(exc)
    """)
    assert off_face.splitlines() == ["exact decomposition failed to reconstruct"] * 12
    malformed = ("Q:(1)|X:(1)", "Z:(1]|X:(1)", "Z:(1,2)|X:(1)")
    labels = _corrupted_check(f"""
        for text in {malformed!r}:
            try:
                print(PhasePoint.parse(text, 3))
            except ValueError as exc:
                print(exc)
    """)
    assert labels.splitlines() == [f"malformed phase point {text!r}" for text in malformed]


def test_empty_circuit(qubit_model):
    """A circuit with no measurement gives the empty outcome tuple on every
    shot, and no shots give no records."""
    rho = preset_state("T", 2, 1)
    dist = qubit_model.decompose(rho)
    circ = Circuit(2, 1, rho, "T", ())
    rec = simulate_run(circ, qubit_model, dist, 3)
    assert rec.outcomes == ()
    records = run_shots(circ, qubit_model, dist, 1000, 5)
    assert len(records) == 1000 and all(r.outcomes == () for r in records)
    assert len({r.final_vertex for r in records}) > 1
    assert run_shots(Circuit(2, 1, rho, "T", (z_measure(2),)), qubit_model, dist, 0, 5) == []


def test_chi_square_helper():
    probs = {(0,): 0.75, (1,): 0.25}
    counts = {(0,): 7480, (1,): 2520}
    stat, p = chi_square(counts, probs, 10000)
    assert p > 1e-3
    with pytest.raises(AssertionError):
        chi_square({(9,): 1}, probs, 1)



def test_chi_square_p_value_is_bit_identical_to_chi2_sf():
    # chi_square reads its p-value from scipy.special.chdtrc; on a seeded
    # grid it equals scipy.stats.chi2.sf bit for bit
    from scipy.special import chdtrc
    from scipy.stats import chi2

    rng = np.random.default_rng(20)
    for dof in range(1, 60):
        for x in rng.exponential(dof, 40).tolist() + [0.0, dof, 1e-9, 40.0 * dof]:
            assert float(chdtrc(dof, x)) == float(chi2.sf(x, dof)), (dof, x)
    for k in range(2, 12):
        # every bin expects >= 5 shots, so there are k - 1 degrees of freedom
        probs = dict(enumerate(rng.dirichlet(np.full(k, 20.0)).tolist()))
        probs = {(o,): p for o, p in probs.items()}
        shots = 400 * k
        counts = dict(zip(probs, rng.multinomial(shots, list(probs.values())).tolist()))
        assert min(probs.values()) * shots >= 5
        stat, p = chi_square(counts, probs, shots)
        assert p == float(chi2.sf(stat, k - 1))

def test_sampled_distribution_matches_oracle(qutrit_model):
    rng = random.Random(12)
    gens = clifford_generators(3, 1)
    rho = preset_state("strange", 3, 1)
    circ = random_circuit(3, 1, 2, rng, gens, rho, "strange")
    probs = oracle_distribution(circ)
    dist = qutrit_model.decompose(rho)
    shots = 20000
    records = run_shots(circ, qutrit_model, dist, shots, seed=5)
    counts: dict = {}
    for rec in records:
        counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
    stat, p = chi_square(counts, probs, shots)
    assert p > 1e-3
