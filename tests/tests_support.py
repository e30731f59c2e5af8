"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import numpy as np

from lambda_hvm.cyclotomic import CycNumber, cyclotomic_polynomial, zeta
from lambda_hvm.exact_lp import feasible_point
from lambda_hvm.hvm import (CliffordOp, OracleBranch, ShotRecord, VertexSetIncomplete,
                            trace_with_projector)
from lambda_hvm.linalg import CycMatrix, exact_rank, exact_solve
from lambda_hvm.pauli import (NotCliffordError, PhasePoint, _mu_step, omega_power,
                              pauli_matrix, pauli_mono, pauli_order, phase_space)
from lambda_hvm.polytope import (VertexCertificate, VertexRejection, _projected_rows,
                                 _vertices_from_coord_list, additive_assignments,
                                 membership, operator_coords, wigner_operator)
from lambda_hvm.stabilizer import group_projector_matrix, value_assignments


def is_uniform_phase_point_average(img, d, n):
    """Exact witness that img is the uniform average of d distinct phase-point operators.

    The d^(2n) phase-point operators of n qudits are a basis, so the convex
    weights found here are the only ones; the average is rechecked exactly.
    """
    ops = [wigner_operator(d, n, g) for g in additive_assignments(d, n)]
    cols = [operator_coords(w, d) for w in ops]
    target = operator_coords(img, d)
    rows = [[c[pos] for c in cols] for pos in range(len(target))]
    rows.append([Fraction(1)] * len(cols))
    sol = feasible_point(rows, list(target) + [Fraction(1)])
    if sol is None:
        return False
    support = [i for i, w in enumerate(sol)
               if (w != 0 if isinstance(w, Fraction) else not w.is_zero())]
    if len(support) != d or any(sol[i] != Fraction(1, d) for i in support):
        return False
    total = ops[support[0]]
    for i in support[1:]:
        total = total + ops[i]
    return total.scale(Fraction(1, d)) == img


def reference_sample(rng, items):
    """Walk the running sum of (key, weight) items to the first one above u."""
    u = rng.random()
    acc = 0.0
    for key, w in items:
        acc += w
        if u < acc:
            return key
    return items[-1][0]


def update(model, alpha, u):
    """The vertex that Clifford element u sends vertex alpha to."""
    return int(model.clifford_permutation(u)[alpha])


def reference_simulate_run(circuit, model, p_in, rng, seed):
    """The op-by-op shot loop over cached kernels and permutations that the
    batched sampler replaced, kept to compare it against."""
    alpha = reference_sample(rng, [(a, float(w)) for a, w in sorted(p_in.weights.items())])
    outcomes = []
    for op in circuit.ops:
        if isinstance(op, CliffordOp):
            alpha = update(model, alpha, op.element)
        else:
            kern = model.kernel(alpha, op.group())
            beta, ri = reference_sample(
                rng, [((beta, ri), float(w)) for (beta, ri), w in sorted(kern.entries.items())])
            outcomes.append(kern.assignments[ri](op.point))
            alpha = beta
    return ShotRecord(seed, tuple(outcomes), alpha)


def reference_run_shots(circuit, model, p_in, shots, seed):
    """run_shots on the reference loop: row k of the stream-version-2 draw
    matrix is the stream of shot k."""
    draws = np.random.Generator(np.random.PCG64(seed)).random(
        (shots, 1 + circuit.measurement_count()))
    return [reference_simulate_run(circuit, model, p_in, SimpleNamespace(random=iter(row).__next__), k)
            for k, row in enumerate(draws.tolist())]


def reference_oracle_simulate(circuit):
    """The dense oracle loop that the state-keyed memo replaced, kept to
    compare against: every op is evaluated on every branch on its own."""
    branches = [OracleBranch((), CycNumber.one(), circuit.state)]
    for op in circuit.ops:
        nxt = []
        if isinstance(op, CliffordOp):
            for br in branches:
                nxt.append(OracleBranch(br.outcomes, br.probability, op.element.apply(br.state)))
        else:
            group = op.group()
            assignments = value_assignments(group)
            for br in branches:
                for r in assignments:
                    p = trace_with_projector(group, r, br.state)
                    if not p.is_real():
                        raise AssertionError("Born probability must be real")
                    if p.sign() <= 0:
                        continue
                    proj = group_projector_matrix(group, r)
                    post = (proj @ br.state @ proj).scale(p.inverse())
                    nxt.append(OracleBranch(br.outcomes + (r(op.point),), br.probability * p, post))
        branches = nxt
    return branches


def reference_phase_one(a_rows, b):
    """The phase-I Bland simplex on a Fraction tableau that the integer
    tableau replaced, kept to compare against.

    Returns the final (tab, rhs, cost, obj, basis, pivots): tab is [A | I]
    after the last pivot, cost the phase-I reduced costs, obj the artificial sum.
    """
    m = len(a_rows)
    n = len(a_rows[0])
    tab = []
    rhs = []
    for row, bi in zip(a_rows, b):
        r = [_fraction(x) for x in row]
        v = _fraction(bi)
        if v < 0:
            r = [-x for x in r]
            v = -v
        tab.append(r)
        rhs.append(v)
    for i in range(m):
        tab[i].extend(Fraction(int(i == j)) for j in range(m))
    basis = [n + i for i in range(m)]
    cost = []
    for j in range(n + m):
        s = sum((tab[i][j] for i in range(m)), Fraction(0))
        cost.append(s if j < n else s - 1)
    obj = sum(rhs, Fraction(0))
    pivots = 0

    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("unbounded phase-I simplex")
        inv = 1 / tab[leave][enter]
        tab[leave] = [x * inv for x in tab[leave]]
        rhs[leave] = rhs[leave] * inv
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
                rhs[i] = rhs[i] - f * rhs[leave]
        f = cost[enter]
        if f != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
            obj = obj - f * rhs[leave]
        basis[leave] = enter
        pivots += 1
    return tab, rhs, cost, obj, basis, pivots


def reference_simplex(a_rows, b):
    """(point or None, pivots) of the reference Fraction simplex on a rational system."""
    tab, rhs, cost, obj, basis, pivots = reference_phase_one(a_rows, b)
    if obj != 0:
        return None, pivots
    n = len(tab[0]) - len(tab)
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
        elif rhs[i] != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x, pivots


def _fraction(x):
    return x.as_fraction() if isinstance(x, CycNumber) else Fraction(x)


def reference_split_rows(a_rows, b):
    """The split system of Fraction rows that the integer split rows
    replaced: the power-basis coefficient rows of every row at one common
    order, all-zero ones dropped; None when one reads 0 = c with c != 0."""
    cyc = [x for x in (*(x for row in a_rows for x in row), *b) if isinstance(x, CycNumber)]
    order = lcm(*(x.order for x in cyc))

    def coefficients(x):
        x = CycNumber.from_rational(x, order)
        return [Fraction(c, x.den) for c in x.num]

    rows, rhs = [], []
    for row, bi in zip(a_rows, b):
        for r, bk in zip(zip(*(coefficients(x) for x in row)), coefficients(bi)):
            if any(r):
                rows.append(list(r))
                rhs.append(bk)
            elif bk:
                return None
    return rows, rhs


def reference_start_tableau(a_rows, b):
    """The start tableau (cost row last) and D that the integer simplex
    built from Fraction rows on every solve: row i of [A | b] scaled by the
    lcm l_i of its denominators and flipped to b_i >= 0, D = prod(l_i), each
    row times D / l_i, D on its artificial column."""
    m, n = len(a_rows), len(a_rows[0])
    scaled, dens = [], []
    for row, bi in zip(a_rows, b):
        q = [_fraction(x) for x in (*row, bi)]
        den = lcm(*(x.denominator for x in q))
        r = [x.numerator * (den // x.denominator) for x in q]
        scaled.append([-v for v in r] if r[-1] < 0 else r)
        dens.append(den)
    det = 1
    for den in dens:
        det *= den
    tab = []
    for i, (r, den) in enumerate(zip(scaled, dens)):
        f = det // den
        tab.append([f * v for v in r[:n]] + [det if j == i else 0 for j in range(m)] + [f * r[n]])
    cost = [sum(col) for col in zip(*tab)]
    cost[n:-1] = [c - det for c in cost[n:-1]]
    return tab + [cost], det


def reference_field_simplex(a_rows, b):
    """The phase-I Bland simplex over real CycNumbers, with its own loop,
    rhs and objective lists and per-candidate ratio divisions, that the
    shared loop replaced; kept to compare against.

    Returns (point or None, pivots).
    """
    m = len(a_rows)
    n = len(a_rows[0])
    one = CycNumber.one()
    zero = CycNumber.zero()
    tab = []
    rhs = []
    for row, bi in zip(a_rows, b):
        r = [CycNumber.from_rational(x) for x in row]
        v = CycNumber.from_rational(bi)
        if v.sign() < 0:
            r = [-x for x in r]
            v = -v
        tab.append(r)
        rhs.append(v)
    for i in range(m):
        tab[i].extend(one if i == j else zero for j in range(m))
    basis = [n + i for i in range(m)]

    # phase-I reduced costs for minimizing the artificial sum
    cost = []
    for j in range(n + m):
        s = zero
        for i in range(m):
            s = s + tab[i][j]
        cost.append(s if j < n else s - one)
    obj = zero
    for v in rhs:
        obj = obj + v
    pivots = 0

    while True:
        enter = next((j for j in range(n + m) if cost[j].sign() > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a.sign() > 0:
                ratio = rhs[i] / a
                if best is None:
                    best, leave = ratio, i
                else:
                    c = (ratio - best).sign()
                    if c < 0 or (c == 0 and basis[i] < basis[leave]):
                        best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("unbounded phase-I simplex")
        piv = tab[leave][enter]
        inv = one / piv
        tab[leave] = [x * inv for x in tab[leave]]
        rhs[leave] = rhs[leave] * inv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if f.sign() != 0:
                    ti, tl = tab[i], tab[leave]
                    tab[i] = [x - f * y for x, y in zip(ti, tl)]
                    rhs[i] = rhs[i] - f * rhs[leave]
        f = cost[enter]
        if f.sign() != 0:
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
            obj = obj - f * rhs[leave]
        basis[leave] = enter
        pivots += 1

    if obj.sign() != 0:
        return None, pivots
    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
        elif rhs[i].sign() != 0:
            raise AssertionError("artificial variable with nonzero value at optimum")
    return x, pivots


def reference_clifford_permutation(vset, u):
    """The dense loop that label-level permutations replaced, kept to compare
    against: U A U^dag for every vertex, looked up by its coordinates."""
    mapping = {}
    for v in vset:
        idx = vset.lookup_matrix(u.apply(v.matrix))
        if idx is None:
            raise VertexSetIncomplete(f"Clifford image of vertex {v.index} not in the vertex set")
        mapping[v.index] = idx
    if sorted(mapping.values()) != list(range(len(vset))):
        raise VertexSetIncomplete("Clifford action is not a bijection on the vertex set")
    return mapping


def _reference_greedy_independent(rows, target):
    """Float Gram-Schmidt preselection of a likely-independent row subset."""
    import numpy as np

    basis = []
    chosen = []
    for idx, row in enumerate(rows):
        v = np.array([x.approx().real for x in row], dtype=float)
        for b in basis:
            v = v - (v @ b) * b
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            basis.append(v / norm)
            chosen.append(idx)
            if len(chosen) == target:
                break
    return chosen


def reference_certify_vertex(coords, hrep):
    """The certificate path that mod-p ranks replaced, kept to compare
    against: a float preselection, then exact ranks only."""
    target = hrep.dim - 1
    ok, active, violated = membership(coords, hrep)
    if not ok:
        return VertexRejection("facet inequality violated", tuple(violated), -1)
    if not active:
        return VertexRejection("interior point: no active facets", (), 0)
    rows = _projected_rows(hrep, active)
    if len(rows) > target:
        subset = _reference_greedy_independent(rows, target)
        if len(subset) == target and exact_rank([rows[i] for i in subset]) == target:
            return VertexCertificate(tuple(active), target)
    rank = exact_rank(rows)
    if rank != target:
        return VertexRejection(f"active set rank {rank} < {target}", (), rank)
    return VertexCertificate(tuple(active), rank)


def reference_enumerate_brute_force(hrep):
    """Solve every (D^2-1)-subset of facet equalities plus the trace row.

    Complete: a vertex has some independent active subset of that size, so
    it appears as the unique solution of at least one subsystem.  The slow
    reference that double description is compared against.
    """
    dim = hrep.dim
    need = dim - 1
    one = CycNumber.one()
    zero = CycNumber.zero()
    trace_row = list(hrep.trace_vector())
    found = []
    for subset in itertools.combinations(range(hrep.facet_count()), need):
        rows = [list(hrep.vectors[i]) for i in subset] + [trace_row]
        rhs = [zero] * need + [one]
        sol = exact_solve(rows, rhs)
        if sol is None:
            continue
        ok, _, _ = membership(sol, hrep)
        if ok:
            found.append(sol)
    return _vertices_from_coord_list(hrep, found)


def _reference_trace_with_pauli(mat, b):
    mono = pauli_mono(b)
    order = pauli_order(b.d)
    acc = CycNumber.zero(order)
    for j, (p, e) in enumerate(zip(mono.perm, mono.exps)):
        x = mat[j, p]
        if not x.is_zero():
            acc = acc + zeta(order, e) * x
    return acc


def reference_projector_trace(points, value, x):
    """The per-module loop that stabilizer.projector_trace replaced:
    Tr((1/|S|) sum omega^{-v(b)} T_b . X), with omega = mu^t."""
    if not points:
        return CycNumber.zero()
    d = points[0].d
    order = pauli_order(d)
    t = _mu_step(d)
    acc = CycNumber.zero(order)
    for b in points:
        acc = acc + zeta(order, (-t * value(b)) % order) * _reference_trace_with_pauli(x, b)
    return acc * Fraction(1, len(points))


def reference_projector_matrix(d, n, points, values):
    """The monomial loop that projector_matrix ran before pauli_sum."""
    pts = list(points)
    dim = d ** n
    order = pauli_order(d)
    t = _mu_step(d)
    zero = CycNumber.zero(order)
    rows = [[zero] * dim for _ in range(dim)]
    for b in pts:
        mono = pauli_mono(b)
        shift = (-t * values[b]) % order
        for j, (p, e) in enumerate(zip(mono.perm, mono.exps)):
            rows[p][j] = rows[p][j] + zeta(order, (e + shift) % order)
    inv = Fraction(1, len(pts))
    return CycMatrix([[x * inv for x in row] for row in rows])


def random_full_matrix(dim, order, rng):
    """A dim x dim matrix over Q(zeta_order), order >= 3, with no zero entry.

    No product in a dense trace or matrix product is then skipped as zero,
    so the dense forms declare every result at the same order as the
    monomial ones and their serialize() can be compared.
    """
    z = zeta(order)
    return CycMatrix([[CycNumber.from_rational(Fraction(rng.randint(1, 3), rng.randint(1, 2)), order)
                       + z * rng.randint(1, 3) for _ in range(dim)] for _ in range(dim)])


# ---------------------------------------------------------------------------
# the searches that the Galois norm and the Pauli-coefficient readout replaced


def _reference_poly_divmod(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for k in range(len(out) - 1, -1, -1):
        coef = num[k + len(den) - 1] * inv_lead
        out[k] = coef
        if coef:
            for j, c in enumerate(den):
                num[k + j] -= coef * c
    return out, num[: len(den) - 1]


def _reference_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def reference_cyclotomic_polynomial(n):
    """Phi_n as (x^n - 1) divided by the product of Phi_d over the proper
    divisors d, in Fraction polynomials, with the remainder checked."""
    if n == 1:
        return (-1, 1)
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _reference_poly_mul(den, [Fraction(c) for c in reference_cyclotomic_polynomial(d)])
    quot, rem = _reference_poly_divmod(num, den)
    if any(rem) or any(c.denominator != 1 for c in quot):
        raise AssertionError(f"Phi_{n} is not an exact integer quotient")
    return tuple(int(c) for c in quot)


def reference_inverse(x):
    """1/x by the extended Euclid loop in Q[t] against Phi_order."""
    if x.is_rational():
        return CycNumber.from_rational(1 / x.as_fraction(), x.order)
    deg = len(x.num)
    r0 = [Fraction(c) for c in cyclotomic_polynomial(x.order)]
    r1 = [Fraction(c, x.den) for c in x.num]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            inv_c = 1 / r1[0]
            coeffs = [c * inv_c for c in s1]
            coeffs += [Fraction(0)] * (deg - len(coeffs))
            den = lcm(*[c.denominator for c in coeffs]) if coeffs else 1
            return CycNumber(x.order, tuple(int(c * den) for c in coeffs[:deg]), den)
        q, rem = _reference_poly_divmod(r0, r1)
        s_new = list(s0)
        s_new += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s_new))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    s_new[i + j] -= qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, s_new


def reference_conjugate(x):
    """Complex conjugation through the table of zeta^{-k} images."""
    order, deg = x.order, len(x.num)
    tab = [zeta(order, (-k) % order).num for k in range(deg)]
    out = [0] * deg
    for k, c in enumerate(x.num):
        if c:
            for i in range(deg):
                out[i] += c * tab[k][i]
    return CycNumber(order, tuple(out), x.den)


def _digits(idx, d, n):
    return tuple((idx // d ** (n - 1 - k)) % d for k in range(n))


def _index(digits, d):
    idx = 0
    for v in digits:
        idx = idx * d + v
    return idx


def reference_conjugate_dense(elem, a):
    """(phase, image) of U T_a U^dag found by matching: the column-0 support
    gives the X part, per-site ratios the Z part, and a dense comparison
    confirms; raises NotCliffordError like the old CliffordElement did."""
    d, n, dim = elem.d, elem.n, elem.d ** elem.n
    mono = pauli_mono(a)
    order = pauli_order(d)
    u = elem.unitary
    ut_cols = []
    for j in range(dim):
        p, e = mono.perm[j], mono.exps[j]
        ph = zeta(order, e)
        ut_cols.append([u[i, p] * ph for i in range(dim)])
    ut = CycMatrix(list(map(list, zip(*ut_cols))))
    m = ut @ elem.unitary.dagger()
    fail = NotCliffordError(f"{elem.name}: conjugate of {a.serialize()} is not a Pauli")
    col0 = [m[i, 0] for i in range(dim)]
    rows0 = [i for i, v in enumerate(col0) if not v.is_zero()]
    if len(rows0) != 1:
        raise fail
    bx = _digits(rows0[0], d, n)
    bz = []
    for site in range(n):
        e_s = [0] * n
        e_s[site] = 1
        val = m[_index(tuple((v + x) % d for v, x in zip(e_s, bx)), d), _index(e_s, d)]
        if val.is_zero():
            raise fail
        ratio = val / col0[rows0[0]]
        t = next((t for t in range(d) if ratio == omega_power(d, t)), None)
        if t is None:
            raise fail
        bz.append(t)
    b = PhasePoint(d, n, tuple(bz), bx)
    ref = pauli_matrix(b)
    ratio = col0[rows0[0]] / ref[rows0[0], 0]
    k = next((k for k in range(d) if ratio == omega_power(d, k)), None)
    if k is not None and m == ref.scale(ratio):
        return k, b
    raise fail


def reference_clifford_tables(d, n, unitary, name="U"):
    """The (phase_map, symplectic_map) the old CliffordElement built."""
    elem = SimpleNamespace(d=d, n=n, unitary=unitary, name=name)
    phases, images = {}, {}
    for a in phase_space(d, n):
        phases[a], images[a] = reference_conjugate_dense(elem, a)
    return phases, images


def reference_embed_single(gate, d, n, site):
    dim = d ** n
    zero = CycNumber.zero()
    rows = [[zero] * dim for _ in range(dim)]
    for idx_in in range(dim):
        digits_in = _digits(idx_in, d, n)
        for out_val in range(d):
            amp = gate[out_val, digits_in[site]]
            if amp.is_zero():
                continue
            digits_out = list(digits_in)
            digits_out[site] = out_val
            rows[_index(digits_out, d)][idx_in] = amp
    return CycMatrix(rows)


def reference_embed_two(gate, d, n, site_a, site_b):
    dim = d ** n
    zero = CycNumber.zero()
    rows = [[zero] * dim for _ in range(dim)]
    for idx_in in range(dim):
        digits_in = _digits(idx_in, d, n)
        col = digits_in[site_a] * d + digits_in[site_b]
        for va in range(d):
            for vb in range(d):
                amp = gate[va * d + vb, col]
                if amp.is_zero():
                    continue
                digits_out = list(digits_in)
                digits_out[site_a] = va
                digits_out[site_b] = vb
                rows[_index(digits_out, d)][idx_in] = amp
    return CycMatrix(rows)
