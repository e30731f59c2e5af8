"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from lambda_hvm.exact_lp import feasible_point
from lambda_hvm.hvm import CliffordOp, ShotRecord
from lambda_hvm.polytope import (additive_assignments, operator_coords,
                                 wigner_operator)


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


def reference_simulate_run(circuit, model, p_in, rng, seed):
    """The op-by-op shot loop over cached kernels and permutations that the
    compiled sampling plans replaced, kept to compare them against."""
    alpha = reference_sample(rng, [(a, float(w)) for a, w in sorted(p_in.weights.items())])
    outcomes = []
    for op in circuit.ops:
        if isinstance(op, CliffordOp):
            alpha = model.update(alpha, op.element)
        else:
            kern = model.kernel(alpha, op.group())
            beta, ri = reference_sample(
                rng, [((beta, ri), float(w)) for (beta, ri), w in sorted(kern.entries.items())])
            outcomes.append(kern.assignments[ri](op.point))
            alpha = beta
    return ShotRecord(seed, tuple(outcomes), alpha)


def reference_run_shots(circuit, model, p_in, shots, seed):
    """run_shots on the reference loop: one random.Random stream per shot."""
    records = []
    for k in range(shots):
        shot_seed = (seed * 0x9E3779B97F4A7C15 + k) % 2 ** 63
        rec = reference_simulate_run(circuit, model, p_in, random.Random(shot_seed), shot_seed)
        records.append(ShotRecord(k, rec.outcomes, rec.final_vertex))
    return records
