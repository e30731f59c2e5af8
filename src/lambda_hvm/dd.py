"""Exact double description: extreme rays of {x : A x >= 0}.

Incremental insertion with the standard combinatorial adjacency test.  Two
scalar backends share the code path: gcd-normalized integer vectors when
every input is rational (fast), and real cyclotomic numbers with exact sign
tests otherwise.  The cones handled here are pointed (the facet normals span
the space); callers slice rays back to polytope vertices afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .cyclotomic import CycNumber
from .linalg import dot as exact_dot, row_reduce

__all__ = ["extreme_rays", "DDRay"]


class DDRay:
    """An extreme ray with its zero-set bitmask over the processed facets."""

    __slots__ = ("coords", "mask")

    def __init__(self, coords: tuple, mask: int):
        self.coords = coords
        self.mask = mask


def _is_rational_input(facets) -> bool:
    for row in facets:
        for x in row:
            if isinstance(x, CycNumber) and not x.is_rational():
                return False
            if isinstance(x, float):
                return False
    return True


# -- integer backend -----------------------------------------------------------


def _int_normalize(vec) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


# -- generic (ordered exact field) backend -------------------------------------


def _cyc_normalize(vec: list[CycNumber]) -> tuple[CycNumber, ...]:
    for x in vec:
        s = x.sign()
        if s != 0:
            scale = (x if s > 0 else -x).inverse()
            return tuple(v * scale for v in vec)
    return tuple(vec)


def extreme_rays(facets: Sequence[Sequence], dim: int) -> list[DDRay]:
    """Extreme rays of the pointed cone {x in R^dim : facet . x >= 0 for all}.

    Rays are normalized (primitive integer vector, or leading positive
    coefficient 1 in the cyclotomic backend); masks record which facets are
    tight on each ray, bit i for facets[i].
    """
    nf = len(facets)
    rational = _is_rational_input(facets)
    if rational:
        rows = [_int_normalize([x.as_fraction() if isinstance(x, CycNumber) else Fraction(x) for x in row])
                for row in facets]

        def dot(row, ray):
            return sum(a * b for a, b in zip(row, ray))

        def combine(sp, sn, rp, rn):
            return _int_normalize([sp * a - sn * b for a, b in zip(rn, rp)])

        sign = lambda v: (v > 0) - (v < 0)
        to_ray = _int_normalize
    else:
        rows = [tuple(map(CycNumber.from_rational, row)) for row in facets]
        dot = exact_dot

        def combine(sp, sn, rp, rn):
            return _cyc_normalize([sp * a - sn * b for a, b in zip(rn, rp)])

        sign = CycNumber.sign
        order = lcm(*(x.order for row in rows for x in row))

        def to_ray(vec):
            return _cyc_normalize([CycNumber.from_rational(x, order) for x in vec])

    chosen, init = _initial_rays(rows, dim)
    rays: list[DDRay] = []
    for r in map(to_ray, init):
        mask = 0
        for bit, fi in enumerate(chosen):
            if sign(dot(rows[fi], r)) == 0:
                mask |= 1 << fi
        rays.append(DDRay(tuple(r), mask))

    remaining = [i for i in range(nf) if i not in set(chosen)]
    for fi in remaining:
        row = rows[fi]
        pos, zero, neg = [], [], []
        values = {}
        for ray in rays:
            s = dot(row, ray.coords)
            sg = sign(s)
            values[id(ray)] = s
            (pos if sg > 0 else zero if sg == 0 else neg).append(ray)
        for ray in zero:
            ray.mask |= 1 << fi
        if not neg:
            rays = pos + zero
            continue
        keep = pos + zero
        min_bits = dim - 2
        new_rays = []
        for rp in pos:
            mp = rp.mask
            for rn in neg:
                common = mp & rn.mask
                if common.bit_count() < min_bits:
                    continue
                # combinatorial adjacency: no third ray's tight set contains it
                adjacent = True
                for r3 in rays:
                    if r3 is rp or r3 is rn:
                        continue
                    if common & r3.mask == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                coords = combine(values[id(rp)], values[id(rn)], rp.coords, rn.coords)
                new_rays.append(DDRay(coords, common | (1 << fi)))
        rays = keep + new_rays
    return rays


def _initial_rays(rows, dim: int):
    """The first dim independent facet rows N, and the columns of N^-1.

    Column j of N^-1 is tight on every chosen facet but the j-th.  Both come
    from row_reduce: the pivot columns of the transposed facet matrix are the
    earliest independent facets, and reducing [N | I] leaves N^-1 on the right.
    """
    chosen = row_reduce([list(col) for col in zip(*rows)], len(rows))
    if len(chosen) < dim:
        raise ValueError("cone is not pointed: facet normals do not span the space")
    aug = [list(rows[i]) + [int(j == k) for j in range(dim)] for k, i in enumerate(chosen)]
    row_reduce(aug, dim)
    return chosen, [[aug[k][dim + j] for k in range(dim)] for j in range(dim)]
