"""The hidden-variable model: states as probability distributions over the
polytope vertices, deterministic Clifford vertex dynamics, probabilistic
measurement update kernels, the sampling simulator, and the exact
quantum-mechanical oracle it is cross-validated against.

Two arithmetic modes run through the same code paths.  Apart from finding
a decomposition, the mode decides only three things: how the model stores a
value (`_value`: its interned CycNumber, or a float), how a model value is
compared with the exact one (`_check`: equality, or agreement within a
tolerance) and how the layered Born check normalises a posterior (by the
exact Born probability, or by the posterior's own float sum).  Decompositions
are found by:

exact    (decomposition version 2) a pure stabilizer state Pi_I^r, such as
         the post-state of every Lagrangian measurement, in closed form
         with no LP: Pi_I^r = (1/|I|) sum_{a in I} T_a V T_a^dag for any
         vertex V on its minimal face (the average lies on that face and
         commutes with every T_a, a in I, so it is a combination of the
         Pi_I^s, and the facets Pi_I^s, s != r, are tight there).  V is
         the first vertex whose certificate mask contains the state's
         tight facets (`VertexSet.stabilizer_faces`), each image is found
         by its label action x_b -> omega^{[a,b]} x_b in `label_index`,
         and the weights are multiplicity / |I|.  Any other operator by a feasibility LP
         over the vertex coordinates (exact_lp), on the vertex set's rows
         prepared once: the rational simplex on the coordinates, or on
         their power-basis coefficients when some are irrational, and the
         field simplex on the Q(zeta) columns with exact sign tests only
         when no rational point exists.  Weights of either path are
         Fractions or real cyclotomic numbers, declared alike, and every
         one is checked by exact reconstruction; kernels carry exact
         cyclotomic weights, interned per model;
numeric  nonnegative least squares on float coordinates, verified against
         the exact operators to 1e-10 and renormalized.

Kernels, oracle and layered check share one Born rule, `_born_transition`:
Tr(Pi_I^r rho) = (1/|I|) sum_{b in I} omega^{-r(b)} conj(x_b) is summed,
with no dense algebra, over the group's |I| Pauli coefficients
x_b = Tr(T_b^dag rho), a vertex's from `label_index` and a state's computed
once per state; being real, it is summed as its conjugate, omega^{r(b)} x_b.
For a maximal group Pi_I^r has rank one, so Pi rho Pi = Tr(Pi rho) Pi and
the post-state of outcome r is the cached projector itself; otherwise
(single Paulis at n >= 2, order-2 labels at d = 4) it is Pi rho Pi / p.  A
kernel decomposes each post-state by `decompose`, with its checks.

The checks on results (decomposition reconstruction, kernel normalization,
the layered Born comparison) raise VerificationError, which is not an
assert statement and so still runs under python -O.

Decompositions are not unique; any feasible one is valid, and every path is
deterministic (the lowest-index face vertex, Bland pivoting, NNLS on
canonically ordered columns).
Each model memoises the decompositions it has found and verified, keyed on
the exact coordinates of the operator, in both modes: at n=1 every vertex on
a measurement line has the same post-measurement state for a given outcome.

A Clifford unitary acts on the vertices by conjugation, and the model computes
that permutation on Pauli-coefficient labels: U T_a U^dag = omega^{k_a}
T_{S(a)} sends the coefficient x_a of a vertex to the slot S(a), times
omega^{k_a}, and the image is looked up by its coefficients, with no dense
matrix product.

Sampling runs all shots of a run at once on stream version 2:
`run_shots` draws one uniform matrix U = Generator(PCG64(seed)).random((shots,
1 + measurements)) in row-major order, and row k drives shot k, column 0
choosing the input vertex and column j the j-th measurement.  Record k
depends only on row k, so a longer run starts with the records of a shorter
one; earlier stream versions gave other records.  The shots then walk the
circuit's ops together, reading only the model's own caches: a Clifford op
indexes its vertex permutation array, and a measurement its point's table,
padded arrays indexed by vertex that hold the running float sums of the
kernel's weights in sorted (beta, r_index) order without the total (padded
with +inf), the next vertex and the outcome of each item, and a mask of the
rows filled.  Rows are filled from the kernel when a shot first reaches their
vertex, so cold models work.  A draw u takes the item at the count of running
sums <= u: the first whose sum exceeds u, the last if none does, exactly as
bisect_right on the same sums; the sums are added in the order the kernel
entries sort, so records are byte-identical to a loop that accumulates the
weights one by one.  The records are built last and allocate little: shots
whose outcome rows are equal share one tuple object, found by a byte view of
the rows (no limit on d or the number of measurements), and a ShotRecord is
a NamedTuple, so it also compares equal to the plain tuple of its fields.
The model's `stats` count kernel, permutation and decomposition cache hits
and misses, table rows filled and shots run, once per call and never per
shot.

The oracle evaluates the Born chain rule exactly, branch by branch, but
computes each op's transition only once per distinct state in a memo that
lives for one op of one call.  The memo is keyed on the exact
representation (order, num, den) of the state's entries, so the branches,
their probabilities and the floats `oracle_distribution` sums are
byte-identical to evaluating every branch on its own (a projector state
equals Pi rho Pi / p, perhaps declared at another order).  `oracle_stats`
counts, for the life of the process, the transitions computed, the
branch-layers served from the memo and the final branches returned.
`verify_circuit_born` runs the same Born transition on the branch it follows.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .cyclotomic import CycNumber
from .exact_lp import feasible_point
from .linalg import CycMatrix
from .pauli import (CliffordElement, PhasePoint, omega_power, pauli_sum,
                    phase_slots, phase_space, symplectic_product)
from .polytope import (VertexSet, cnc_phase_point, coords_key, membership,
                       operator_coords, pauli_coefficient, projector_coords)
from .stabilizer import (IsotropicSubgroup, ValueAssignment,
                         assignment_is_valid, group_projector_matrix,
                         projector_matrix, projector_pair, projector_trace,
                         value_assignments)

__all__ = [
    "DecompositionInfeasible",
    "VerificationError",
    "VertexSetIncomplete",
    "StateDistribution",
    "HiddenVariableModel",
    "TransitionKernel",
    "KernelEntries",
    "CliffordOp",
    "MeasureOp",
    "Circuit",
    "random_circuit",
    "simulate_run",
    "run_shots",
    "ShotRecord",
    "oracle_simulate",
    "oracle_distribution",
    "oracle_stats",
    "OracleBranch",
    "verify_circuit_born",
    "chi_square",
    "PhiMapSpec",
    "phi_apply",
    "embed_leading",
    "embed_trailing",
    "lem_trace_reduction",
    "lem_coefficient_trace",
    "cnc_form_image",
]

NUMERIC_RESIDUAL = 1e-10
PROB_CLIP = 1e-12


class DecompositionInfeasible(ValueError):
    """The operator admits no convex decomposition over the vertex set."""

    def __init__(self, message: str, violated: Sequence[str] = ()):
        super().__init__(message)
        self.violated = tuple(violated)


class VertexSetIncomplete(RuntimeError):
    """A Clifford image or measurement post-state escaped the vertex index."""


class VerificationError(AssertionError):
    """An exact or numeric check on the model's results failed."""


def _verify(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


# ---------------------------------------------------------------------------
# distributions over vertices


@dataclass
class StateDistribution:
    """Probability weights over vertex indices; weights are Fractions,
    cyclotomic reals (exact mode) or floats (numeric mode)."""

    vset: VertexSet
    weights: dict[int, object]
    mode: str

    def reconstruct(self) -> CycMatrix:
        acc = None
        for alpha, w in sorted(self.weights.items()):
            term = self.vset[alpha].matrix.scale(w)
            acc = term if acc is None else acc + term
        return acc

    def reconstruct_complex(self) -> np.ndarray:
        coeffs = [float(w) for w in self.weights.values()]
        return np.tensordot(coeffs, self.vset.complex_matrices[list(self.weights)], axes=1)


def _prefix_table(items: Iterable[tuple[object, object]]) -> tuple[list[float], list]:
    """(running float sums, keys) of (key, weight) items, for sampling.

    A draw u takes the first key whose running sum exceeds u, and the last
    key when rounding leaves the total at or below u.  The total is therefore
    left out: the count of the other sums <= u is at most the last index,
    which is that clamp.
    """
    keys, weights = zip(*items)
    return list(accumulate(map(float, weights)))[:-1], list(keys)


# ---------------------------------------------------------------------------
# traces against projectors


def trace_with_projector(group: IsotropicSubgroup, r: ValueAssignment, mat: CycMatrix) -> CycNumber:
    """Tr(Pi_I^r M) exactly."""
    return projector_trace(group.elements, r.as_dict(), mat)


# ---------------------------------------------------------------------------
# the model: decomposition, Clifford action, measurement kernels


class KernelEntries(Mapping):
    """A kernel's read-only (beta, r_index) -> weight map, in insertion
    order: a keys tuple shared by the process and a tuple of the weights,
    about a third of the size of a dict."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: tuple[tuple[int, int], ...], values: tuple):
        self._keys = keys
        self._values = values

    def __getitem__(self, key: tuple[int, int]):
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> tuple[tuple[tuple[int, int], object], ...]:
        return tuple(zip(self._keys, self._values))

    def values(self) -> tuple:
        return self._values


@dataclass(slots=True)
class TransitionKernel:
    """q_{alpha,I}(beta, r): weights over (vertex, assignment-index) pairs.

    In exact mode the weights and marginals are the model's interned
    CycNumbers: equal values stored by one model are one object.  The
    (beta, r_index) entry keys are shared by every kernel of the process.
    The model stores `entries` as read-only KernelEntries, and kernels of
    one model with equal entries share one, as they share one marginals
    tuple.
    """

    alpha: int
    group: IsotropicSubgroup
    assignments: tuple[ValueAssignment, ...]
    entries: Mapping[tuple[int, int], object]   # (beta, r_index) -> weight
    marginals: tuple[object, ...]               # Q(r_index | alpha) = Tr(Pi A)

    def branch(self, r_index: int) -> list[tuple[int, object]]:
        return sorted((beta, w) for (beta, ri), w in self.entries.items() if ri == r_index)


STAT_NAMES = ("kernel_hits", "kernel_misses", "perm_hits", "perm_misses",
              "decompose_hits", "decompose_misses", "decompose_closed_form",
              "decompose_lp", "table_fills", "shots")


class _PointTable:
    """The sampling table of one measurement point: row alpha holds the
    kernel at alpha as running sums without the total (padded with +inf),
    next vertices and outcomes, and `filled[alpha]` says it was built."""

    def __init__(self, vertices: int):
        self.cum = np.full((vertices, 0), np.inf)
        self.nxt = np.zeros((vertices, 1), dtype=np.intp)
        self.out = np.zeros((vertices, 1), dtype=np.intp)
        self.filled = np.zeros(vertices, dtype=bool)

    def fill(self, alpha: int, sums: list[float], nxt: Sequence[int], out: Sequence[int]) -> None:
        """Store row alpha, widening every row when it has more items."""
        grow = len(nxt) - self.nxt.shape[1]
        if grow > 0:
            rows = len(self.filled)
            self.cum = np.hstack([self.cum, np.full((rows, grow), np.inf)])
            self.nxt = np.hstack([self.nxt, np.zeros((rows, grow), dtype=np.intp)])
            self.out = np.hstack([self.out, np.zeros((rows, grow), dtype=np.intp)])
        self.cum[alpha, :len(sums)] = sums
        self.nxt[alpha, :len(nxt)] = nxt
        self.out[alpha, :len(out)] = out
        self.filled[alpha] = True


class HiddenVariableModel:
    """Vertex set plus memoized decompositions, kernels, Clifford vertex
    permutations (one array per element) and the sampling table of each
    measured point.

    `stats` maps each name in STAT_NAMES to a count: cache hits and misses
    of `kernel`, `clifford_permutation` and `decompose`, the exact
    decompositions found in closed form and by the LP, sampling table rows
    filled and shots run.

    In exact mode the model interns the values its kernels store, marginals
    and weights t * w alike: one CycNumber per distinct (order, num, den),
    shared by every kernel of the model.  In both modes kernels with equal
    exact marginals share one marginals tuple, and kernels with equal
    entries one read-only entries mapping, so a cached kernel with the
    entries of an earlier one costs little more than its own slots.
    """

    def __init__(self, vset: VertexSet, mode: str = "exact"):
        if mode not in ("exact", "numeric"):
            raise ValueError("mode must be 'exact' or 'numeric'")
        self.vset = vset
        self.mode = mode
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        self._kernels: dict[tuple, TransitionKernel] = {}
        self._perms: dict[CliffordElement, np.ndarray] = {}
        self._decompositions: dict[tuple, dict[int, object]] = {}
        self._tables: dict[PhasePoint, _PointTable] = {}
        self._values: dict[tuple, CycNumber] = {}
        self._marginals: dict[tuple, tuple] = {}
        self._entries: dict[tuple, KernelEntries] = {}

    # -- state decomposition -------------------------------------------------

    def decompose(self, rho: CycMatrix) -> StateDistribution:
        """A probability vector p with sum_alpha p(alpha) A_alpha = rho.

        Existence is guaranteed for every operator inside the polytope; an
        exact membership scan names a violated facet otherwise.  Found
        decompositions are memoised per model on the exact coordinates of
        rho; each call returns its own copy of the weights.  The coordinates
        of a cached projector (a Lagrangian post-state) are computed once
        per process (`projector_coords`).
        """
        pair = projector_pair(rho)
        if pair is not None and pair[0].d == self.vset.d:
            coords = projector_coords(*pair)
        else:
            coords = operator_coords(rho, self.vset.d)
        memo_key = tuple((c.order, c.num, c.den) for c in coords)
        weights = self._decompositions.get(memo_key)
        if weights is None:
            self.stats["decompose_misses"] += 1
            weights = self._find_decomposition(rho, coords)
            self._decompositions[memo_key] = weights
        else:
            self.stats["decompose_hits"] += 1
        return StateDistribution(self.vset, dict(weights), self.mode)

    def _find_decomposition(self, rho: CycMatrix, coords: Sequence[CycNumber]) -> dict[int, object]:
        key = coords_key(coords, self.vset.d)
        alpha = self.vset.index.get(key)
        if alpha is not None:
            return {alpha: Fraction(1) if self.mode == "exact" else 1.0}
        if self.mode == "exact":
            weights = self._decompose_exact(rho, coords, key)
        else:
            weights = self._decompose_numeric(rho, coords)
        if weights is None:
            ok, _, violated = membership(coords, self.vset.hrep)
            if not ok:
                names = [self.vset.hrep.labels[i] for i in violated]
                raise DecompositionInfeasible(
                    f"operator lies outside the polytope; violated: {names[0]}", names)
            raise VertexSetIncomplete("operator is in the polytope but no decomposition was found")
        return weights

    def _decompose_exact(self, rho: CycMatrix, target: Sequence[CycNumber],
                         key: Optional[tuple]) -> Optional[dict[int, object]]:
        rows = self.vset.lp_rows
        face = self.vset.stabilizer_faces.get(key)
        if face is not None:
            self.stats["decompose_closed_form"] += 1
            weights = self._stabilizer_orbit(*face)
        else:
            self.stats["decompose_lp"] += 1
            sol = feasible_point(rows, [*target, Fraction(1)])
            if sol is None:
                return None
            weights = {i: w for i, w in enumerate(sol) if w != 0}
        if not rows.rational or any(not x.is_rational() for x in target):
            # An irrational system may still be answered in Fractions (by
            # the split path); declare them at the system's order, as the
            # field simplex would, so weights print the same either way.
            order = lcm(rows.order, *(x.order for x in target))
            weights = {i: CycNumber.from_rational(w, order) if isinstance(w, Fraction) else w
                       for i, w in weights.items()}
        dist = StateDistribution(self.vset, weights, "exact")
        _verify(dist.reconstruct() == rho, "exact decomposition failed to reconstruct")
        return weights

    def _stabilizer_orbit(self, group: IsotropicSubgroup, face: int) -> dict[int, Fraction]:
        """The closed-form weights, in vertex order, of the stabilizer state
        of group I whose tight facets form the bitmask face: the I-orbit of
        the first vertex on its minimal face (see the module docstring).  A
        missing face vertex or orbit image raises VertexSetIncomplete."""
        alpha = next((i for i, m in enumerate(self.vset.certificate_masks) if m & face == face), None)
        if alpha is None:
            raise VertexSetIncomplete("no vertex on the minimal face of a stabilizer state")
        _, coefficients, index = self.vset.label_index
        xs = coefficients[alpha]
        omega = [omega_power(self.vset.d, k) for k in range(self.vset.d)]
        counts: dict[int, int] = {}
        for phases in _conjugation_phases(group):
            key = []
            for k, x in zip(phases, xs):
                y = omega[k] * x if k else x
                key.append((y.num, y.den))
            beta = index.get(tuple(key))
            if beta is None:
                raise VertexSetIncomplete(
                    f"Pauli image of vertex {alpha} on a stabilizer face not in the vertex set")
            counts[beta] = counts.get(beta, 0) + 1
        return {beta: Fraction(c, len(group)) for beta, c in sorted(counts.items())}

    def _decompose_numeric(self, rho: CycMatrix, target: Sequence[CycNumber]) -> Optional[dict[int, object]]:
        from scipy.optimize import nnls

        a = self.vset.float_coords
        a_aug = np.vstack([a, np.ones((1, a.shape[1]))])
        b_aug = np.concatenate([[c.approx().real for c in target], [1.0]])
        sol, _ = nnls(a_aug, b_aug)
        weights = {i: float(w) for i, w in enumerate(sol) if w > PROB_CLIP}
        total = sum(weights.values())
        if not weights or abs(total - 1.0) > 1e-6:
            return None
        weights = {i: w / total for i, w in weights.items()}
        dist = StateDistribution(self.vset, weights, "numeric")
        residual = np.max(np.abs(dist.reconstruct_complex() - rho.to_complex()))
        if residual > NUMERIC_RESIDUAL:
            return None
        return weights

    # -- Clifford dynamics ------------------------------------------------------

    def clifford_permutation(self, u: CliffordElement) -> np.ndarray:
        """The vertex map as a read-only index array: perm[alpha] = beta with
        U A_alpha U^dag = A_beta.

        Acts on Pauli-coefficient labels: A = (1/D) sum_a x_a T_a and
        U T_a U^dag = omega^{k_a} T_{S(a)} give the image the coefficients
        y_{S(a)} = omega^{k_a} x_a, which are looked up in the vertex set's
        label index.  Raises VertexSetIncomplete if an image is missing or
        the map is not a bijection.  Memoised per model on the element, which
        hashes by identity.
        """
        perm = self._perms.get(u)
        if perm is not None:
            self.stats["perm_hits"] += 1
            return perm
        self.stats["perm_misses"] += 1
        slots, coefficients, index = self.vset.label_index
        omega = [omega_power(self.vset.d, k) for k in range(self.vset.d)]
        moves = []
        for a in slots:
            k, image = u.conjugate_label(a)
            moves.append((k, slots[image]))
        # the products repeat across vertices: memoise them on (k, x)
        products: dict[tuple, tuple] = {}
        images: list[int] = []
        for v, xs in zip(self.vset, coefficients):
            key: list = [None] * len(xs)
            for (k, slot), x in zip(moves, xs):
                memo = (k, x.num, x.den)
                y = products.get(memo)
                if y is None:
                    y = omega[k] * x
                    y = products[memo] = (y.num, y.den)
                key[slot] = y
            idx = index.get(tuple(key))
            if idx is None:
                raise VertexSetIncomplete(
                    f"Clifford image of vertex {v.index} not in the vertex set")
            images.append(idx)
        if sorted(images) != list(range(len(self.vset))):
            raise VertexSetIncomplete("Clifford action is not a bijection on the vertex set")
        perm = np.array(images, dtype=np.intp)
        perm.flags.writeable = False
        self._perms[u] = perm
        return perm

    # -- measurement kernels ------------------------------------------------------

    def kernel(self, alpha: int, group: IsotropicSubgroup) -> TransitionKernel:
        alpha = int(alpha)      # a numpy integer index is stored as a Python int
        key = (group.key(), alpha)
        kern = self._kernels.get(key)
        if kern is not None:
            self.stats["kernel_hits"] += 1
            return kern
        self.stats["kernel_misses"] += 1
        probs, post = _born_transition(group, self.vset[alpha].matrix,
                                       self.vset.label_index[1][alpha])
        keys: list[tuple[int, int]] = []
        weights: list[object] = []
        marginals: list[object] = []
        exact: list[tuple] = []
        for ri, t in enumerate(probs):
            sgn = t.sign()
            if sgn < 0:
                raise AssertionError("negative outcome weight on a polytope vertex")
            value = self._value(t)
            marginals.append(value)
            exact.append((t.order, t.num, t.den))
            if sgn == 0:
                continue
            for beta, w in self.decompose(post(ri)).weights.items():
                keys.append((beta, ri))
                weights.append(self._value(value * w))
        self._check(sum(weights), 1, 1e-9, "kernel normalization failed",
                    "kernel normalization failed")
        entries = self._shared_entries(tuple(keys), tuple(weights))
        kern = self._kernels[key] = TransitionKernel(
            alpha, group, _group_assignments(group), entries,
            self._marginals.setdefault(tuple(exact), tuple(marginals)))
        return kern

    def _shared_entries(self, keys: tuple, weights: tuple) -> KernelEntries:
        """The model's one KernelEntries of these keys and weights, found by
        the keys and each weight's exact representation (exact mode) or
        float (numeric mode)."""
        exact = tuple((w.order, w.num, w.den) for w in weights) if self.mode == "exact" else weights
        shared = self._entries.get((keys, exact))
        if shared is None:
            shared = self._entries[keys, exact] = KernelEntries(_entry_keys(keys), weights)
        return shared

    def _value(self, x):
        """x as the model stores it: in exact mode the model's one CycNumber
        equal to x in (order, num, den), in numeric mode a float."""
        if self.mode == "numeric":
            return float(x)
        return self._values.setdefault((x.order, x.num, x.den), x)

    def _check(self, x, y, tol: float, exact_message: str, numeric_message: str) -> float:
        """The error of the model's x against the exact y: 0.0 in exact mode,
        where x must equal y, else the largest float |x - y|, which must be at
        most tol.  A StateDistribution x is compared through the operator it
        reconstructs.  A failure raises VerificationError with the mode's
        message, the numeric one formatted with the error."""
        dist = isinstance(x, StateDistribution)
        if self.mode == "exact":
            _verify((x.reconstruct() if dist else x) == y, exact_message)
            return 0.0
        x, y = (x.reconstruct_complex(), y.to_complex()) if dist else (x, float(y))
        err = float(np.max(np.abs(x - y)))
        _verify(err <= tol, numeric_message.format(err))
        return err

    # -- sampling tables ----------------------------------------------------------

    def _point_table(self, point: PhasePoint) -> _PointTable:
        """The sampling table of measuring point, shared by every circuit."""
        table = self._tables.get(point)
        if table is None:
            table = self._tables[point] = _PointTable(len(self.vset))
        return table

    def _fill_table(self, table: _PointTable, alpha: int, point: PhasePoint) -> None:
        """Compile the kernel at alpha for measuring point into row alpha."""
        self.stats["table_fills"] += 1
        kern = self.kernel(alpha, _cyclic_group(point))
        sums, keys = _prefix_table(((beta, kern.assignments[ri](point)), w)
                                   for (beta, ri), w in sorted(kern.entries.items()))
        nxt, out = zip(*keys)
        table.fill(alpha, sums, nxt, out)


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class CliffordOp:
    element: CliffordElement
    label: str


@dataclass(frozen=True)
class MeasureOp:
    point: PhasePoint

    def group(self) -> IsotropicSubgroup:
        return _cyclic_group(self.point)


@lru_cache(maxsize=None)
def _cyclic_group(point: PhasePoint) -> IsotropicSubgroup:
    return IsotropicSubgroup.from_generators(point.d, point.n, [point])


@lru_cache(maxsize=None)
def _group_assignments(group: IsotropicSubgroup) -> tuple[ValueAssignment, ...]:
    """The group's value assignments, one frozen tuple shared by its kernels."""
    return tuple(value_assignments(group))


@lru_cache(maxsize=None)
def _marginal_terms(group: IsotropicSubgroup) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per value assignment r of the group, the (slot, r(b)) of each b in I,
    slot being b's position in `phase_slots`: the terms `_label_sum` adds.
    The pairs hold only ints, so the cache holds no objects for the
    collector to walk.
    """
    slots = phase_slots(group.d, group.n)
    return tuple(tuple((slots[b], v) for b, v in r.values) for r in _group_assignments(group))


@lru_cache(maxsize=None)
def _scaled_roots(d: int, size: int) -> tuple[CycNumber, ...]:
    """omega^k / size for k < d, at the order of omega: a sum keeps xs's order."""
    return tuple(omega_power(d, k) * Fraction(1, size) for k in range(d))


def _label_sum(group: IsotropicSubgroup, terms: Sequence[tuple[int, int]],
               xs: Sequence[CycNumber]) -> CycNumber:
    """(1/|I|) sum of omega^k * xs[slot] over the (slot, k) terms."""
    roots = _scaled_roots(group.d, len(group))
    (slot, k), *rest = terms
    acc = roots[k] * xs[slot]
    for slot, k in rest:
        acc = acc + roots[k] * xs[slot]
    return acc


@lru_cache(maxsize=None)
def _conjugation_phases(group: IsotropicSubgroup) -> tuple[tuple[int, ...], ...]:
    """Per a in I, the exponent [a, b] of each label b in `phase_slots`
    order: T_a T_b T_a^dag = omega^{[a, b]} T_b."""
    slots = phase_slots(group.d, group.n)
    return tuple(tuple(symplectic_product(a, b) for b in slots) for a in group)


@lru_cache(maxsize=None)
def _entry_keys(keys: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The (beta, r_index) keys of kernel entries, one tuple per distinct
    sequence for the life of the process, so kernels share their keys."""
    return keys


@dataclass(frozen=True)
class Circuit:
    d: int
    n: int
    state: CycMatrix
    state_name: str
    ops: tuple[Union[CliffordOp, MeasureOp], ...]

    def __post_init__(self):
        dim = self.d ** self.n
        if self.state.rows != dim:
            raise ValueError("input state has the wrong dimension")
        for op in self.ops:
            if isinstance(op, MeasureOp):
                if (op.point.d, op.point.n) != (self.d, self.n):
                    raise ValueError("measurement label on the wrong system")
                if op.point.is_zero():
                    raise ValueError("trivial measurement: label must be nonzero")
            elif isinstance(op, CliffordOp):
                if (op.element.d, op.element.n) != (self.d, self.n):
                    raise ValueError("Clifford gate on the wrong system")

    def measurement_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, MeasureOp))


def random_circuit(d: int, n: int, depth: int, rng: random.Random,
                   gate_pool: Sequence[CliffordElement], state: CycMatrix,
                   state_name: str = "custom") -> Circuit:
    """Alternating random generator gates and random single-label measurements."""
    points = [p for p in phase_space(d, n) if not p.is_zero()]
    ops: list[Union[CliffordOp, MeasureOp]] = []
    for _ in range(depth):
        gate = rng.choice(list(gate_pool))
        ops.append(CliffordOp(gate, gate.name))
        ops.append(MeasureOp(rng.choice(points)))
    return Circuit(d, n, state, state_name, tuple(ops))


# ---------------------------------------------------------------------------
# the sampling simulator


class ShotRecord(NamedTuple):
    """One shot: its index in the run, its outcomes in measurement order
    and its final vertex, all Python ints.

    A NamedTuple, so a record also equals the plain tuple (shot, outcomes,
    final_vertex); the shots of a run with equal outcomes share one tuple.
    """

    shot: int
    outcomes: tuple[int, ...]
    final_vertex: int


def simulate_run(circuit: Circuit, model: HiddenVariableModel,
                 p_in: StateDistribution, seed: int) -> ShotRecord:
    """One trajectory: the first record of run_shots(circuit, model, p_in, 1, seed)."""
    return run_shots(circuit, model, p_in, 1, seed)[0]


def run_shots(circuit: Circuit, model: HiddenVariableModel, p_in: StateDistribution,
              shots: int, seed: int, threads: Optional[int] = None) -> list[ShotRecord]:
    """Seeded independent trajectories on stream version 2.

    Row k of U = Generator(PCG64(seed)).random((shots, 1 + measurements))
    drives shot k, so the records of a run are a prefix of those of any
    longer run with the same seed.  `threads` accepts only None or 1: all
    shots run in one batch, and the keyword goes once the benchmark stops
    passing threads=1 (ROADMAP item 1).
    """
    if threads not in (None, 1):
        raise ValueError("threads must be None or 1: the shots of a run are sampled in one batch")
    if shots < 0 or seed < 0:
        raise ValueError("shots and seed must be nonnegative")
    draws = np.random.Generator(np.random.PCG64(seed)).random(
        (shots, 1 + circuit.measurement_count()))
    model.stats["shots"] += shots
    return _sample_batch(circuit, model, p_in, draws)


def _sample_batch(circuit: Circuit, model: HiddenVariableModel, p_in: StateDistribution,
                  draws: np.ndarray) -> list[ShotRecord]:
    """The records of the shots whose uniform draws are the rows of draws.

    Column 0 picks the input vertex and column j the j-th measurement's
    item; table rows that a shot reaches for the first time are filled from
    the kernels before they are read.  The records are built in one pass,
    with one outcome tuple per distinct row (`_shared_rows`).
    """
    sums, keys = _prefix_table(sorted(p_in.weights.items()))
    alpha = np.array(keys, dtype=np.intp)[np.searchsorted(sums, draws[:, 0], side="right")]
    outcomes = np.empty((len(draws), draws.shape[1] - 1), dtype=np.intp)
    j = 0
    for op in circuit.ops:
        if isinstance(op, CliffordOp):
            alpha = model.clifford_permutation(op.element)[alpha]
            continue
        table = model._point_table(op.point)
        missing = alpha[~table.filled[alpha]]
        for a in np.unique(missing).tolist():
            model._fill_table(table, a, op.point)
        pick = (table.cum[alpha] <= draws[:, j + 1, None]).sum(axis=1)
        outcomes[:, j] = table.out[alpha, pick]
        alpha = table.nxt[alpha, pick]
        j += 1
    return list(map(ShotRecord._make, zip(range(len(draws)), _shared_rows(outcomes), alpha.tolist())))


def _shared_rows(outcomes: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of an integer matrix as tuples of Python ints, equal rows
    sharing one tuple object.

    Rows are compared as bytes (one void item per row), so any number of
    columns and any entry range works, where a mixed-radix integer code
    would overflow once d^m reaches 2^63.
    """
    count, width = outcomes.shape
    if width == 0:
        return [()] * count
    rows = np.ascontiguousarray(outcomes)
    keys = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = list(map(tuple, rows[first].tolist()))
    return list(map(distinct.__getitem__, inverse.ravel().tolist()))


# ---------------------------------------------------------------------------
# the exact quantum oracle


@dataclass(frozen=True)
class OracleBranch:
    outcomes: tuple[int, ...]
    probability: CycNumber
    state: CycMatrix

    def prob_float(self) -> float:
        return float(self.probability)


def _state_key(mat: CycMatrix) -> tuple:
    """The exact representation of mat's entries, in row order: equal keys
    mean the same inputs to the same code, hence identical results."""
    return tuple((x.order, x.num, x.den) for row in mat.data for x in row)


def _born_transition(group: IsotropicSubgroup, rho: CycMatrix, xs: Sequence[CycNumber]
                     ) -> tuple[list[CycNumber], Callable[[int], CycMatrix]]:
    """(probabilities, post) of measuring group on the Hermitian rho whose
    x_b = Tr(T_b^dag rho) xs holds by slot, for vertices and states alike.

    probabilities[ri] = Tr(Pi_I^r rho) for the ri-th of the group's value
    assignments, a label sum over xs; post(ri) = Pi_I^r rho Pi_I^r /
    probabilities[ri], built only when asked for: the cached projector
    itself for a maximal group (rank one), else the dense product.
    """
    probs = []
    for terms in _marginal_terms(group):
        p = _label_sum(group, terms, xs)
        if not p.is_real():
            raise AssertionError("Born probability must be real")
        probs.append(p)

    def post(ri: int) -> CycMatrix:
        proj = group_projector_matrix(group, _group_assignments(group)[ri])
        return proj if group.is_maximal() else (proj @ rho @ proj).scale(probs[ri].inverse())

    return probs, post


def _group_coefficients(group: IsotropicSubgroup, rho: CycMatrix) -> dict[int, CycNumber]:
    """x_b = Tr(T_b^dag rho) for the labels b of the group, keyed by slot."""
    slots = phase_slots(group.d, group.n)
    return {slots[b]: pauli_coefficient(rho, b) for b in group.elements}


def _oracle_moves(op: Union[CliffordOp, MeasureOp], rho: CycMatrix) -> list[tuple]:
    """The (outcome suffix, probability or None, post-state, its key) moves
    of one op on rho: the Clifford image, or every outcome of positive Born
    probability in value-assignment order."""
    if isinstance(op, CliffordOp):
        image = op.element.apply(rho)
        return [((), None, image, _state_key(image))]
    group = op.group()
    probs, post = _born_transition(group, rho, _group_coefficients(group, rho))
    moves = []
    for ri, (r, p) in enumerate(zip(_group_assignments(group), probs)):
        if p.sign() > 0:
            state = post(ri)
            moves.append(((r(op.point),), p, state, _state_key(state)))
    return moves


oracle_stats = {"transitions": 0, "reused": 0, "branches": 0}


def oracle_simulate(circuit: Circuit) -> list[OracleBranch]:
    """Exact chain-rule evaluation of every outcome sequence.

    Each op's transition (the Clifford image, or the outcomes of positive
    Born probability with their post-states) is computed once per distinct
    state and shared by every branch that reaches it; the memo is keyed on
    the exact representation of the state's entries and dropped when the op
    is done.  Equal keys run identical code on identical inputs, so the
    branches, their order and their probabilities are exactly those of
    evaluating every branch on its own.  Zero-probability outcomes are
    pruned by exact sign tests; returned probabilities sum to one.
    """
    state = circuit.state
    branches = [((), CycNumber.one(), state, _state_key(state))]
    for op in circuit.ops:
        memo: dict[tuple, list[tuple]] = {}
        nxt = []
        for outcomes, prob, rho, key in branches:
            moves = memo.get(key)
            if moves is None:
                moves = memo[key] = _oracle_moves(op, rho)
            for suffix, p, post, post_key in moves:
                nxt.append((outcomes + suffix, prob if p is None else prob * p, post, post_key))
        oracle_stats["transitions"] += len(memo)
        oracle_stats["reused"] += len(branches) - len(memo)
        branches = nxt
    oracle_stats["branches"] += len(branches)
    return [OracleBranch(outcomes, prob, rho) for outcomes, prob, rho, _ in branches]


def oracle_distribution(circuit: Circuit) -> dict[tuple[int, ...], float]:
    """Outcome sequence -> float probability; each distinct exact
    probability is converted once."""
    out: dict[tuple[int, ...], float] = {}
    floats: dict[tuple, float] = {}
    for br in oracle_simulate(circuit):
        p = br.probability
        key = (p.order, p.num, p.den)
        f = floats.get(key)
        if f is None:
            f = floats[key] = br.prob_float()
        out[br.outcomes] = out.get(br.outcomes, 0.0) + f
    return out


# ---------------------------------------------------------------------------
# layered cross-validation of the model against the oracle


def verify_circuit_born(circuit: Circuit, model: HiddenVariableModel,
                        tol: float = NUMERIC_RESIDUAL) -> dict:
    """Layer-by-layer comparison of the model with quantum mechanics.

    At every measurement the Born rule aggregate sum_alpha p(alpha) Q(r|alpha)
    is compared with Tr(Pi rho) for every outcome, then the chain-rule
    posterior is reconstructed and compared with the exact post-measurement
    state; the walk follows the most likely branch.  Exact mode checks
    equality, numeric mode agreement within tol; a mismatch raises
    VerificationError.
    """
    rho = circuit.state
    dist = model.decompose(rho)
    layers = 0
    max_prob_err = 0.0
    max_state_err = 0.0
    for op in circuit.ops:
        if isinstance(op, CliffordOp):
            rho = op.element.apply(rho)
            perm = model.clifford_permutation(op.element)
            dist = StateDistribution(model.vset, {int(perm[a]): w for a, w in dist.weights.items()},
                                     dist.mode)
            continue
        group = op.group()
        kerns = {a: model.kernel(a, group) for a in dist.weights}
        probs_qm, post = _born_transition(group, rho, _group_coefficients(group, rho))
        for ri, p_qm in enumerate(probs_qm):
            # the Born aggregate sum_alpha p(alpha) Q(r | alpha)
            p_sim = sum(kerns[a].marginals[ri] * w for a, w in dist.weights.items())
            err = model._check(p_sim, p_qm, tol, "Born aggregate differs from the oracle",
                               "Born aggregate off by {}")
            max_prob_err = max(max_prob_err, err)
        layers += 1
        # descend into the most likely branch
        floats = [float(p) for p in probs_qm]
        ri = max(range(len(floats)), key=lambda i: (floats[i], -i))
        rho = post(ri)
        posterior: dict[int, object] = {}
        for a, w in dist.weights.items():
            for beta, q in kerns[a].branch(ri):
                prev = posterior.get(beta)
                posterior[beta] = w * q if prev is None else prev + w * q
        if model.mode == "exact":
            inv = probs_qm[ri].inverse()
            posterior = {b: v * inv for b, v in posterior.items()}
        else:
            total = sum(posterior.values())
            posterior = {b: v / total for b, v in posterior.items()}
        dist = StateDistribution(model.vset, posterior, model.mode)
        err = model._check(dist, rho, tol, "chain-rule post-state mismatch",
                           "chain-rule post-state off by {}")
        max_state_err = max(max_state_err, err)
    return {"layers": layers, "max_prob_err": max_prob_err, "max_state_err": max_state_err}


# ---------------------------------------------------------------------------
# sampling statistics


def chi_square(counts: dict[tuple[int, ...], int],
               probs: dict[tuple[int, ...], float], shots: int,
               min_expected: float = 5.0) -> tuple[float, float]:
    """(statistic, p-value) of the frequencies against the oracle distribution.

    Bins with small expectation are merged to keep the test applicable.  The
    p-value is scipy.special.chdtrc, the function behind scipy.stats.chi2.sf,
    without the import of scipy.stats.
    """
    from scipy.special import chdtrc

    unknown = set(counts) - set(probs)
    if unknown:
        raise AssertionError(f"observed outcome outside the oracle support: {unknown}")
    items = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))
    big = [(k, p) for k, p in items if p * shots >= min_expected]
    small = [(k, p) for k, p in items if p * shots < min_expected]
    f_obs = [counts.get(k, 0) for k, _ in big]
    f_exp = [p * shots for _, p in big]
    if small:
        f_obs.append(sum(counts.get(k, 0) for k, _ in small))
        f_exp.append(sum(p for _, p in small) * shots)
    stat = sum((o - e) ** 2 / e for o, e in zip(f_obs, f_exp) if e > 0)
    dof = max(len(f_exp) - 1, 1)
    return stat, float(chdtrc(dof, stat))


# ---------------------------------------------------------------------------
# embedding the m-qudit model into the n-qudit model


def embed_leading(a: PhasePoint, n: int) -> PhasePoint:
    pad = n - a.n
    return PhasePoint(a.d, n, a.az + (0,) * pad, a.ax + (0,) * pad)


def embed_trailing(b: PhasePoint, n: int) -> PhasePoint:
    pad = n - b.n
    return PhasePoint(b.d, n, (0,) * pad + b.az, (0,) * pad + b.ax)


def _leading_part(k: PhasePoint, m: int) -> PhasePoint:
    return PhasePoint(k.d, m, k.az[:m], k.ax[:m])


def _trailing_part(k: PhasePoint, m: int) -> PhasePoint:
    return PhasePoint(k.d, k.n - m, k.az[m:], k.ax[m:])


@dataclass(frozen=True)
class PhiMapSpec:
    """X -> U (X tensor Pi_J^r) U^dag from m to n qudits.

    J is a maximal isotropic subgroup of the trailing (n-m)-qudit phase
    space, so Pi_J^r is a stabilizer state there and traces are preserved.
    """

    m: int
    n: int
    j_group: IsotropicSubgroup        # over (d, n-m)
    r: ValueAssignment
    u: Optional[CliffordElement] = None

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise ValueError("need 0 < m < n")
        d = self.j_group.d
        if self.j_group.n != self.n - self.m:
            raise ValueError("J must live on the trailing n-m qudits")
        if len(self.j_group) != d ** (self.n - self.m):
            raise ValueError("J must be maximal on the trailing sector")
        if not assignment_is_valid(self.j_group.elements, self.r):
            raise ValueError("invalid value assignment on J")
        if self.u is not None and (self.u.d, self.u.n) != (d, self.n):
            raise ValueError("U must act on the full n-qudit system")

    @property
    def d(self) -> int:
        return self.j_group.d

    def ancilla_projector(self) -> CycMatrix:
        return projector_matrix(self.d, self.n - self.m, self.j_group.elements, self.r.as_dict())


def phi_apply(x: CycMatrix, spec: PhiMapSpec) -> CycMatrix:
    out = x.kron(spec.ancilla_projector())
    if spec.u is not None:
        out = spec.u.apply(out)
    return out


def lem_trace_reduction(x: CycMatrix, spec: PhiMapSpec,
                        group_i: IsotropicSubgroup, s: ValueAssignment) -> dict:
    """Both sides of the trace-reduction identity Tr(Pi_I^s Phi(X)).

    Evaluates the closed forms against exact matrix algebra: the printed
    variant (subgroup K n E_m, prefactor |K|/2^n), the d^n-normalized
    variant, and the general variant using the projection of K onto the
    leading sector with the transported assignment.  Returns which variants
    match the matrix value.
    """
    if spec.u is not None:
        raise ValueError("trace reduction is stated for the identity Clifford")
    d, m, n = spec.d, spec.m, spec.n
    lhs = trace_with_projector(group_i, s, phi_apply(x, spec))

    j_members = set(spec.j_group.elements)
    k_points = [k for k in group_i.elements if _trailing_part(k, m) in j_members]
    # delta: s and r must agree on K n J (trailing labels with zero leading part)
    delta = all(s(k) == spec.r(_trailing_part(k, m))
                for k in k_points if _leading_part(k, m).is_zero())

    zero_cyc = CycNumber.zero()
    if not delta:
        rhs_general = zero_cyc
        rhs_printed = zero_cyc
    else:
        # printed form: K n E_m with s restricted there
        km_points = [k for k in k_points if _trailing_part(k, m).is_zero()]
        km_leading = [_leading_part(k, m) for k in km_points]
        km_values = {_leading_part(k, m): s(k) for k in km_points}
        tr_km = projector_trace(km_leading, km_values, x)
        rhs_printed = tr_km * Fraction(len(k_points), 1)

        # general form: the projection of K with the transported assignment
        proj_values: dict[PhasePoint, int] = {}
        for k in k_points:
            lead = _leading_part(k, m)
            val = (s(k) - spec.r(_trailing_part(k, m))) % d
            if proj_values.setdefault(lead, val) != val:
                raise AssertionError("transported assignment is inconsistent")
        proj_group = IsotropicSubgroup.from_generators(
            d, m, [p for p in proj_values if not p.is_zero()])
        if set(proj_group.elements) != set(proj_values):
            raise AssertionError("projected tight set is not a subgroup")
        s_tilde = ValueAssignment.from_dict(d, proj_values)
        if not assignment_is_valid(proj_group.elements, s_tilde):
            raise AssertionError("transported assignment is not noncontextual")
        tr_gen = projector_trace(proj_group.elements, proj_values, x)
        rhs_general = tr_gen * Fraction(len(k_points), 1)

    return {
        "lhs": lhs,
        "k_size": len(k_points),
        "delta": delta,
        "matches_printed_2n": lhs == rhs_printed * Fraction(1, 2 ** n),
        "matches_printed_dn": lhs == rhs_printed * Fraction(1, d ** n),
        "matches_general_dn": lhs == rhs_general * Fraction(1, d ** n),
    }


def lem_coefficient_trace(y: CycMatrix, spec: PhiMapSpec,
                          iprime: IsotropicSubgroup, sprime: ValueAssignment) -> tuple[CycNumber, CycNumber]:
    """Both sides of Tr(Pi_{I'+J}^{s'*r} Y) = Tr(Pi_{I'}^{s'} Y~).

    Y is any Hermitian n-qudit operator with zero trace; Y~ collapses the
    trailing sector with the J-average of the Pauli coefficients.
    """
    d, m, n = spec.d, spec.m, spec.n
    dim_m = d ** m
    # s'*r on I' + J (direct sum inside E_n)
    big_points = []
    big_values = {}
    for a in iprime.elements:
        ea = embed_leading(a, n)
        for b in spec.j_group.elements:
            eb = embed_trailing(b, n)
            big_points.append(ea + eb)
            big_values[ea + eb] = (sprime(a) + spec.r(b)) % d
    lhs = projector_trace(big_points, big_values, y)

    # collapsed operator on the leading sector
    inv_j = Fraction(1, len(spec.j_group))
    terms = []
    for a in phase_space(d, m):
        za = CycNumber.zero()
        for b in spec.j_group.elements:
            label = embed_leading(a, n) + embed_trailing(b, n)
            za = za + omega_power(d, spec.r(b)) * pauli_coefficient(y, label)
        terms.append((a, za * inv_j))
    ytilde = pauli_sum(d, m, terms).scale(Fraction(1, dim_m))
    rhs = trace_with_projector(iprime, sprime, ytilde)
    return lhs, rhs


def cnc_form_image(support: Iterable[PhasePoint], gamma: ValueAssignment,
                   spec: PhiMapSpec) -> tuple[CycMatrix, CycMatrix]:
    """(Phi(A_Omega^gamma), A_{Omega+J}^{gamma*r}) for exact comparison."""
    if spec.u is not None:
        raise ValueError("the exact form comparison is stated for the identity Clifford")
    pts = sorted(set(support), key=lambda p: (p.az, p.ax))
    a_m = cnc_phase_point(pts, gamma)
    image = phi_apply(a_m, spec)
    big_points = []
    big_values = {}
    for a in pts:
        ea = embed_leading(a, spec.n)
        for b in spec.j_group.elements:
            eb = embed_trailing(b, spec.n)
            big_points.append(ea + eb)
            big_values[ea + eb] = (gamma(a) + spec.r(b)) % spec.d
    expected = projector_matrix(spec.d, spec.n, big_points, big_values).scale(
        Fraction(len(big_points), spec.d ** spec.n))
    return image, expected
