"""Exact feasibility LP: the rational split path, the field fallback and
infeasibility, on seeded systems over the real subfields of Q(zeta_8)
(sqrt 2) and Q(zeta_12) (sqrt 3), each answer rechecked exactly; the
integer rational simplex against the Fraction simplex it replaced, and the
field path of the shared Bland loop against the field simplex it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_hvm import exact_lp, hvm
from lambda_hvm.cyclotomic import CycNumber, sqrt_int
from lambda_hvm.exact_lp import feasible_point
from lambda_hvm.hvm import HiddenVariableModel, MeasureOp, random_circuit
from lambda_hvm.pauli import clifford_generators, phase_space
from lambda_hvm.polytope import enumerate_vertices, lambda_hrep, operator_coords, stabilizer_states
from lambda_hvm.presets import preset_names, preset_state
from lambda_hvm.stabilizer import group_projector_matrix, value_assignments
from tests_support import (reference_field_simplex, reference_phase_one, reference_simplex,
                           reference_split_rows, reference_start_tableau)

# field order -> the square root generating its real subfield
FIELDS = {8: 2, 12: 3}
SEEDS = range(4)


def real_entry(rng, order):
    """p + q sqrt(k) with small rational p, q, declared at the field order."""
    p = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    q = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return CycNumber.from_rational(p, order) + sqrt_int(FIELDS[order]) * q


def dot(row, x):
    acc = CycNumber.zero()
    for a, w in zip(row, x):
        acc = acc + a * w
    return acc


def assert_solves(rows, b, x):
    assert len(x) == len(rows[0])
    assert all(w >= 0 for w in x)
    assert all(dot(row, x) == bi for row, bi in zip(rows, b))


@pytest.fixture
def calls():
    """Solves by path inside feasible_point, read as deltas of exact_lp.stats."""
    start = dict(exact_lp.stats)
    return lambda: {k: exact_lp.stats[k] - start[k] for k in ("rational", "split", "field")}


def planted_rational_lp(order, seed):
    """3 x 7 field rows with a planted rational point and irrational b."""
    rng = random.Random(f"exact_lp/rational/{order}/{seed}")
    m, n = 3, 7
    while True:
        rows = [[real_entry(rng, order) for _ in range(n)] for _ in range(m)]
        planted = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                   for _ in range(n)]
        b = [dot(row, planted) for row in rows]
        if not all(bi.is_rational() for bi in b):
            return rows, b


def planted_irrational_lp(order, seed):
    """An invertible 3 x 3 field system whose one solution is irrational."""
    rng = random.Random(f"exact_lp/irrational/{order}/{seed}")
    root = sqrt_int(FIELDS[order])
    m = 3
    while True:
        rows = [[real_entry(rng, order) for _ in range(m)] for _ in range(m)]
        planted = [Fraction(rng.randint(1, 4)) + root * Fraction(rng.randint(0, 2), 3) for _ in range(m)]
        if any(not w.is_rational() for w in planted) and _det3(rows) != 0:
            return rows, [dot(row, planted) for row in rows], planted


def infeasible_lp(order, seed):
    """Positive entries summed against a negative right-hand side."""
    rng = random.Random(f"exact_lp/infeasible/{order}/{seed}")
    root = sqrt_int(FIELDS[order])
    n = 5
    rows = [[Fraction(rng.randint(1, 3)) + root * Fraction(rng.randint(1, 2)) for _ in range(n)]
            for _ in range(2)]
    return rows, [CycNumber.from_rational(-1, order), real_entry(rng, order)]


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_rational_solution_takes_the_split_path(order, seed, calls):
    rows, b = planted_rational_lp(order, seed)
    x = feasible_point(rows, b)
    assert x is not None and all(type(w) is Fraction for w in x)
    assert_solves(rows, b, x)
    assert calls() == {"rational": 0, "split": 1, "field": 0}


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_irrational_solution_falls_back_to_the_field(order, seed, calls):
    # A square invertible system has one solution; planted irrational, it
    # leaves the split system infeasible and the field simplex must find it.
    rows, b, planted = planted_irrational_lp(order, seed)
    x = feasible_point(rows, b)
    assert x is not None and all(isinstance(w, CycNumber) for w in x)
    assert all(w == p for w, p in zip(x, planted))
    assert_solves(rows, b, x)
    assert calls()["field"] == 1


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def test_split_infeasible_but_field_feasible(calls):
    # x1 + x2 = 1, sqrt2 x1 + 2 x2 = 3/2 has x1 = (2 + sqrt2)/4: no split row
    # is 0 = c, so the rational simplex runs, finds nothing, and the field
    # simplex answers.
    r2 = sqrt_int(2)
    rows = [[Fraction(1), Fraction(1)], [r2, Fraction(2)]]
    b = [Fraction(1), Fraction(3, 2)]
    x = feasible_point(rows, b)
    assert x[0] == (2 + r2) * Fraction(1, 4)
    assert_solves(rows, b, x)
    assert calls() == {"rational": 0, "split": 1, "field": 1}


def test_qubit_t_state_needs_irrational_weights(calls):
    vset = enumerate_vertices(lambda_hrep(2, 1))
    target = operator_coords(preset_state("T", 2, 1), 2)
    cols = [v.coords for v in vset.vertices]
    rows = [[col[pos] for col in cols] for pos in range(len(target))]
    rows.append([Fraction(1)] * len(cols))
    b = list(target) + [Fraction(1)]
    x = feasible_point(rows, b)
    assert x is not None and all(isinstance(w, CycNumber) for w in x)
    assert any(not w.is_rational() for w in x)
    assert_solves(rows, b, x)
    # the T coordinates are irrational against rational vertex columns, so a
    # split row reads 0 = c and the rational simplex is skipped
    assert calls() == {"rational": 0, "split": 0, "field": 1}
    model = HiddenVariableModel(vset, mode="exact")
    assert model.decompose(preset_state("T", 2, 1)).weights == {i: w for i, w in enumerate(x) if w != 0}


def test_zero_split_row_skips_the_rational_simplex(calls):
    # rational columns against sqrt(3)/2: the sqrt(3) coefficient row reads 0 = 1/2
    r3 = sqrt_int(3)
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [r3 * Fraction(1, 2), Fraction(1, 2)]
    x = feasible_point(rows, b)
    assert x[0] == r3 * Fraction(1, 2) and x[1] == Fraction(1, 2)
    assert calls() == {"rational": 0, "split": 0, "field": 1}


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_infeasible_on_both_paths(order, seed, calls):
    assert feasible_point(*infeasible_lp(order, seed)) is None
    assert calls() == {"rational": 0, "split": 1, "field": 1}


def test_rational_input_skips_the_split(calls):
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    b = [Fraction(3), Fraction(2)]
    x = feasible_point(rows, b)
    assert all(type(w) is Fraction for w in x)
    assert_solves(rows, b, x)
    assert feasible_point([[Fraction(1)]], [Fraction(-1)]) is None
    assert calls() == {"rational": 2, "split": 0, "field": 0}


# -- the integer tableau against the Fraction simplex ---------------------------


def assert_matches_reference(rows, b):
    """Same point (or None) and pivot count as the reference Fraction simplex,
    and the final integer tableau is D times the final Fraction tableau."""
    start = exact_lp.stats["pivots"]
    x = feasible_point(rows, b)
    pivots = exact_lp.stats["pivots"] - start
    expected, ref_pivots = reference_simplex(rows, b)
    assert x == expected
    assert x is None or all(type(w) is Fraction for w in x)
    assert pivots == ref_pivots

    tab, cost, det, basis = exact_lp._integer_phase_one(exact_lp.PreparedRows(rows).integer, b)
    ref_tab, ref_rhs, ref_cost, ref_obj, ref_basis, _ = reference_phase_one(rows, b)
    assert det > 0 and basis == ref_basis
    assert all(type(v) is int for row in (*tab, cost) for v in row)
    assert tab == [[det * v for v in (*row, r)] for row, r in zip(ref_tab, ref_rhs)]
    assert cost == [det * v for v in (*ref_cost, ref_obj)]
    return pivots


@st.composite
def rational_lps(draw):
    """Small rational systems with degenerate ties: zero and repeated columns,
    zero right-hand sides, rows whose own denominators differ."""
    m = draw(st.integers(1, 5))
    cols = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=7))
    if draw(st.booleans()):
        cols.append(list(draw(st.sampled_from(cols))))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), [0] * m)
    dens = draw(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=m, max_size=m))
    rows = [[Fraction(col[i], dens[i]) for col in cols] for i in range(m)]
    if draw(st.booleans()):
        # a planted point, often with zeros, so ratio ties are common
        x = draw(st.lists(st.sampled_from((0, 0, 1, 2, Fraction(1, 2))),
                          min_size=len(cols), max_size=len(cols)))
        b = [sum((a * w for a, w in zip(row, x)), Fraction(0)) for row in rows]
    else:
        b = [Fraction(draw(st.integers(-3, 3)), den) for den in dens]
    return rows, b


@settings(max_examples=400, deadline=None)
@given(rational_lps())
def test_rational_path_matches_the_fraction_simplex(lp):
    assert_matches_reference(*lp)


def test_row_denominators_scale_each_row_on_its_own():
    # Row 1 mixes halves and thirds (lcm 6), row 2 is in halves (lcm 2), so
    # D0 = 12.  One lcm over the whole tableau would start from D = 6, floor
    # entries that are no longer integers and return (2/3, 0, 1), which is
    # not even a solution.
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(0)],
            [Fraction(1, 2), Fraction(1, 2), Fraction(1)]]
    b = [Fraction(1, 3), Fraction(3, 2)]
    assert assert_matches_reference(rows, b) == 3
    assert feasible_point(rows, b) == [Fraction(0), Fraction(1), Fraction(1)]


# -- big integers ---------------------------------------------------------------


def wide_integer_lp(m, seed):
    """m x (m + 4) integer rows with entries in [-4096, 4096] and a planted
    point: the start entries are small, the final tableaus hold entries of
    2**50 to 2**75."""
    rng = random.Random(f"exact_lp/int64/{m}/{seed}")
    n = m + 4
    rows = [[rng.randint(-4096, 4096) for _ in range(n)] for _ in range(m)]
    x = [rng.randint(0, 3) for _ in range(n)]
    return rows, [sum(a * w for a, w in zip(row, x)) for row in rows]


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("seed", range(3))
def test_entries_past_the_int64_bound_restart_on_python_ints(m, seed):
    # the point, the pivot count and the whole final tableau are still the
    # reference simplex's
    rows, b = wide_integer_lp(m, seed)
    assert max(abs(v) for row in rows for v in row) <= 4096
    assert_matches_reference(rows, b)


def test_big_start_entries_match_the_fraction_simplex():
    big = 2147483648  # 2**31
    rows = [[big, 1, 0], [1, 2, 3]]
    assert_matches_reference(rows, [big + 1, 6])
    rows = [[Fraction(1, 3 * big), 1], [1, 1]]
    assert_matches_reference(rows, [1, 2])


# -- prepared rows --------------------------------------------------------------


def _same_answer(x, y):
    assert x == y
    if x is not None:
        assert [type(w) for w in x] == [type(w) for w in y]
        assert [w.serialize() if isinstance(w, CycNumber) else repr(w) for w in x] == \
            [w.serialize() if isinstance(w, CycNumber) else repr(w) for w in y]


@pytest.mark.parametrize("seed", SEEDS)
def test_prepared_rows_reused_across_right_hand_side_orders(seed, calls):
    # One PreparedRows per Q(sqrt 2) matrix answers right-hand sides of
    # order 1, 8 and 24 (sqrt 3 raises the split order) exactly as the plain
    # rows do, on the split and on the field path.
    r3 = sqrt_int(3)
    rational_rows, b_split = planted_rational_lp(8, seed)
    field_rows, b_field, _ = planted_irrational_lp(8, seed)
    for rows, b in ((rational_rows, b_split), (field_rows, b_field)):
        prepared = exact_lp.PreparedRows(rows)
        assert not prepared.rational and prepared.order == 8
        for rhs in (b, [x + r3 * 0 for x in b], [b[0] + r3, *b[1:]], [Fraction(1)] * len(b), b):
            assert exact_lp._split_rows(prepared, rhs) == exact_lp._split_rows(rows, rhs)
            _same_answer(feasible_point(prepared, rhs), feasible_point(rows, rhs))
    paths = calls()
    assert paths["rational"] == 0 and paths["split"] > 0 and paths["field"] > 0


def test_prepared_rational_rows():
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    prepared = exact_lp.PreparedRows(rows)
    assert prepared.rational and prepared.order == 1
    for b in ([Fraction(3), Fraction(2)], [sqrt_int(2), Fraction(1)], [Fraction(-1), Fraction(0)]):
        _same_answer(feasible_point(prepared, b), feasible_point(rows, b))
    assert feasible_point(exact_lp.PreparedRows([]), []) == []


def test_vertex_set_lp_rows_are_the_transposed_coordinates():
    vset = enumerate_vertices(lambda_hrep(3, 1))
    prepared = vset.lp_rows
    assert prepared is vset.lp_rows
    cols = [v.coords for v in vset.vertices]
    assert prepared.rows == [[col[k] for col in cols] for k in range(len(cols[0]))] + \
        [[Fraction(1)] * len(cols)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prepared_integer_rows_give_the_fraction_rows_start_tableau(d):
    # the vertex-set rows against every stabilizer state and the magic
    # presets: each solve's start tableau, on the rational or the split
    # path, is the one the Fraction rows gave when scaled on every solve
    vset = enumerate_vertices(lambda_hrep(d, 1))
    prepared = vset.lp_rows
    states = [s.matrix for s in stabilizer_states(d, 1)]
    states += [preset_state(name, d, 1) for name in preset_names(d, 1)]
    paths = set()
    for state in states:
        rhs = [*operator_coords(state, d), Fraction(1)]
        if exact_lp._is_rational(prepared, rhs):
            system, ref = (prepared.integer, rhs), (prepared.rows, rhs)
            paths.add("rational")
        else:
            system = exact_lp._split_rows(prepared, rhs)
            ref = reference_split_rows(prepared.rows, rhs)
            assert (system is None) == (ref is None)
            if system is None:
                continue
            paths.add("split")
        assert exact_lp._integer_tableau(*system) == reference_start_tableau(*ref)
    assert paths == ({"rational"} if d == 2 else {"split"})


def _recorded_lps(monkeypatch, run):
    """The distinct systems that feasible_point receives from the model during
    run(), with prepared rows unwrapped to their plain rows."""
    seen = {}
    solve = hvm.feasible_point

    def record(rows, b):
        plain = rows.rows if isinstance(rows, exact_lp.PreparedRows) else rows
        seen.setdefault(repr((plain, b)), (plain, b))
        return solve(rows, b)

    with monkeypatch.context() as patch:
        patch.setattr(hvm, "feasible_point", record)
        run()
    return list(seen.values())


def _rational_systems(lps):
    """Each system as the rational simplex sees it: itself, or its split
    rows as Fraction rows."""
    out = []
    for rows, b in lps:
        if exact_lp._is_rational(rows, b):
            out.append((rows, b))
        else:
            split = exact_lp._split_rows(rows, b)
            if split is not None:
                int_rows, rhs = split
                out.append(([[Fraction(v, den) for v in ints] for ints, den in int_rows], rhs))
    return out


def _line_groups(d):
    groups = {}
    for p in phase_space(d, 1):
        if not p.is_zero():
            g = MeasureOp(p).group()
            groups.setdefault(g.key(), g)
    return list(groups.values())


def _post_state_systems(vset, groups):
    """The decomposition system of each post-state Pi_I^r of the groups, on
    the vertex set's rows: what the model solved by LP before stabilizer
    states decomposed in closed form."""
    rows = vset.lp_rows.rows
    return [(rows, [*operator_coords(group_projector_matrix(g, r), vset.d), Fraction(1)])
            for g in groups for r in value_assignments(g)]


def test_qutrit_kernel_lps_match_the_fraction_simplex(monkeypatch):
    # all 324 kernels; every post-state is one of the 12 qutrit stabilizer
    # states, which the model decomposes in closed form, with no LP; their
    # 12 systems are solved directly
    vset = enumerate_vertices(lambda_hrep(3, 1))
    model = HiddenVariableModel(vset, mode="exact")
    groups = _line_groups(3)

    def run():
        for g in groups:
            for alpha in range(len(vset)):
                model.kernel(alpha, g)

    assert _recorded_lps(monkeypatch, run) == []
    assert model.stats["decompose_closed_form"] == 12 and model.stats["decompose_lp"] == 0
    lps = _post_state_systems(vset, groups)
    systems = _rational_systems(lps)
    assert len(lps) == len(systems) == 12
    pivots = [assert_matches_reference(rows, b) for rows, b in systems]
    assert min(pivots) >= 2


def test_job_panel_lps_match_the_fraction_simplex(monkeypatch):
    # the first 10 circuits of the job-exact-d2 benchmark panel
    vset = enumerate_vertices(lambda_hrep(2, 1))
    gates = clifford_generators(2, 1)
    states = {name: preset_state(name, 2, 1) for name in ("T", "H")}

    def run():
        for j in range(10):
            name = "T" if j % 2 == 0 else "H"
            circuit = random_circuit(2, 1, 8, random.Random(f"job-exact-d2/job/{j}"), gates,
                                     states[name], name)
            model = HiddenVariableModel(vset, mode="exact")
            model.decompose(circuit.state)
            hvm.verify_circuit_born(circuit, model)

    # the model solves only the T and H input states, which need the field;
    # the 6 qubit stabilizer post-states are closed form, so their systems
    # are solved directly
    lps = _recorded_lps(monkeypatch, run)
    assert len(lps) == 2 and _rational_systems(lps) == []
    systems = _rational_systems(_post_state_systems(vset, _line_groups(2)))
    assert len(systems) == 6
    for rows, b in systems:
        assert_matches_reference(rows, b)


def test_ququart_split_lps_match_the_fraction_simplex(monkeypatch):
    # circuit 0 of the sample-warm-d4 benchmark panel, walked forward through
    # the kernels of every vertex its shots can reach, in exact mode: the
    # order-2 post-states are no stabilizer states and take the split LP
    vset = enumerate_vertices(lambda_hrep(4, 1))
    circuit = random_circuit(4, 1, 6, random.Random("sample-warm-d4/circuit/0"),
                             clifford_generators(4, 1), preset_state("zero", 4, 1), "zero")
    model = HiddenVariableModel(vset, mode="exact")

    def run():
        front = set(model.decompose(circuit.state).weights)
        for op in circuit.ops:
            if isinstance(op, hvm.CliffordOp):
                perm = model.clifford_permutation(op.element)
                front = {perm[a] for a in front}
            else:
                front = {beta for a in front for beta, _ in model.kernel(a, op.group()).entries}

    lps = _recorded_lps(monkeypatch, run)
    systems = _rational_systems(lps)
    assert len(lps) == len(systems) == 4
    pivots = [assert_matches_reference(rows, b) for rows, b in systems]
    assert min(pivots) >= 30


# -- the field path against the CycNumber simplex -------------------------------


def assert_field_matches_reference(rows, b):
    """Same point (or None), with the same serialize() bytes, and the same
    pivot count as the reference CycNumber simplex."""
    start = exact_lp.stats["pivots"]
    x = exact_lp._field_simplex(rows, b)
    pivots = exact_lp.stats["pivots"] - start
    expected, ref_pivots = reference_field_simplex(rows, b)
    assert pivots == ref_pivots
    assert (x is None) == (expected is None)
    if x is not None:
        assert all(isinstance(w, CycNumber) for w in x)
        assert x == expected
        assert [w.serialize() for w in x] == [w.serialize() for w in expected]
    return x


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_field_path_matches_the_cyc_simplex_on_seeded_systems(order, seed):
    rows, b, planted = planted_irrational_lp(order, seed)
    assert assert_field_matches_reference(rows, b) == planted
    rows, b = planted_rational_lp(order, seed)
    assert_solves(rows, b, assert_field_matches_reference(rows, b))
    assert assert_field_matches_reference(*infeasible_lp(order, seed)) is None


@st.composite
def field_lps(draw):
    """Small systems over Q(sqrt 2) or Q(sqrt 3) with degenerate ties: zero
    and repeated columns, zero right-hand sides, planted points."""
    order = draw(st.sampled_from(sorted(FIELDS)))
    root = sqrt_int(FIELDS[order])
    entry = st.builds(lambda p, q: CycNumber.from_rational(p, order) + root * q,
                      st.integers(-2, 2), st.sampled_from((0, 0, 1, -1, Fraction(1, 2))))
    m = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=6))
    if draw(st.booleans()):
        cols.append(list(draw(st.sampled_from(cols))))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), [CycNumber.zero(order)] * m)
    rows = [[col[i] for col in cols] for i in range(m)]
    if draw(st.booleans()):
        # a planted point, often with zeros, so ratio ties are common
        x = draw(st.lists(st.sampled_from((0, 0, 1, 2, root, 1 + root * Fraction(1, 2))),
                          min_size=len(cols), max_size=len(cols)))
        b = [dot(row, x) for row in rows]
    else:
        b = [draw(st.one_of(st.just(CycNumber.zero(order)), entry)) for _ in range(m)]
    return rows, b


@settings(max_examples=150, deadline=None)
@given(field_lps())
def test_field_path_matches_the_cyc_simplex(lp):
    assert_field_matches_reference(*lp)


def test_magic_state_lps_match_the_cyc_simplex(monkeypatch, calls):
    # the input decompositions of T and H at d = 2, which need the field
    # path, and of the strange and norrell states at d = 3, which the split
    # path answers; the field simplex is run on all four
    def run():
        for d, names in ((2, ("T", "H")), (3, ("strange", "norrell"))):
            model = HiddenVariableModel(enumerate_vertices(lambda_hrep(d, 1)), mode="exact")
            for name in names:
                model.decompose(preset_state(name, d, 1))

    lps = _recorded_lps(monkeypatch, run)
    assert len(lps) == 4
    assert calls() == {"rational": 0, "split": 2, "field": 2}
    for rows, b in lps:
        assert_solves(rows, b, assert_field_matches_reference(rows, b))
