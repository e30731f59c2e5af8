"""Exact feasibility LP: the rational split path, the field fallback and
infeasibility, on seeded systems over the real subfields of Q(zeta_8)
(sqrt 2) and Q(zeta_12) (sqrt 3), each answer rechecked exactly."""

import random
from fractions import Fraction

import pytest

from lambda_hvm import exact_lp
from lambda_hvm.cyclotomic import CycNumber, sqrt_int
from lambda_hvm.exact_lp import feasible_point
from lambda_hvm.hvm import HiddenVariableModel
from lambda_hvm.polytope import enumerate_vertices, lambda_hrep, operator_coords
from lambda_hvm.presets import preset_state

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
def calls(monkeypatch):
    """Count the rational and the field simplex runs inside feasible_point."""
    seen = {"rational": 0, "field": 0}
    rational, field = exact_lp._rational_simplex, exact_lp._simplex

    def counted_rational(rows, b):
        seen["rational"] += 1
        return rational(rows, b)

    def counted_field(rows, b, conv, *rest):
        if conv is exact_lp._to_cyc:
            seen["field"] += 1
        return field(rows, b, conv, *rest)

    monkeypatch.setattr(exact_lp, "_rational_simplex", counted_rational)
    monkeypatch.setattr(exact_lp, "_simplex", counted_field)
    return seen


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_rational_solution_takes_the_split_path(order, seed, calls):
    rng = random.Random(f"exact_lp/rational/{order}/{seed}")
    m, n = 3, 7
    while True:
        rows = [[real_entry(rng, order) for _ in range(n)] for _ in range(m)]
        planted = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                   for _ in range(n)]
        b = [dot(row, planted) for row in rows]
        if not all(bi.is_rational() for bi in b):
            break
    x = feasible_point(rows, b)
    assert x is not None and all(type(w) is Fraction for w in x)
    assert_solves(rows, b, x)
    assert calls == {"rational": 1, "field": 0}


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_irrational_solution_falls_back_to_the_field(order, seed, calls):
    # A square invertible system has one solution; planted irrational, it
    # leaves the split system infeasible and the field simplex must find it.
    rng = random.Random(f"exact_lp/irrational/{order}/{seed}")
    root = sqrt_int(FIELDS[order])
    m = 3
    while True:
        rows = [[real_entry(rng, order) for _ in range(m)] for _ in range(m)]
        planted = [Fraction(rng.randint(1, 4)) + root * Fraction(rng.randint(0, 2), 3) for _ in range(m)]
        if any(not w.is_rational() for w in planted) and _det3(rows) != 0:
            break
    b = [dot(row, planted) for row in rows]
    x = feasible_point(rows, b)
    assert x is not None and all(isinstance(w, CycNumber) for w in x)
    assert all(w == p for w, p in zip(x, planted))
    assert_solves(rows, b, x)
    assert calls["field"] == 1


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
    assert calls == {"rational": 1, "field": 1}


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
    assert calls == {"rational": 0, "field": 1}
    model = HiddenVariableModel(vset, mode="exact")
    assert model.decompose(preset_state("T", 2, 1)).weights == {i: w for i, w in enumerate(x) if w != 0}


def test_zero_split_row_skips_the_rational_simplex(calls):
    # rational columns against sqrt(3)/2: the sqrt(3) coefficient row reads 0 = 1/2
    r3 = sqrt_int(3)
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [r3 * Fraction(1, 2), Fraction(1, 2)]
    x = feasible_point(rows, b)
    assert x[0] == r3 * Fraction(1, 2) and x[1] == Fraction(1, 2)
    assert calls == {"rational": 0, "field": 1}


@pytest.mark.parametrize("order", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_infeasible_on_both_paths(order, seed, calls):
    # positive entries summed against a negative right-hand side
    rng = random.Random(f"exact_lp/infeasible/{order}/{seed}")
    root = sqrt_int(FIELDS[order])
    n = 5
    rows = [[Fraction(rng.randint(1, 3)) + root * Fraction(rng.randint(1, 2)) for _ in range(n)]
            for _ in range(2)]
    b = [CycNumber.from_rational(-1, order), real_entry(rng, order)]
    assert feasible_point(rows, b) is None
    assert calls == {"rational": 1, "field": 1}


def test_rational_input_skips_the_split():
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    b = [Fraction(3), Fraction(2)]
    x = feasible_point(rows, b)
    assert all(type(w) is Fraction for w in x)
    assert_solves(rows, b, x)
    assert feasible_point([[Fraction(1)]], [Fraction(-1)]) is None
