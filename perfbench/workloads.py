"""The three benchmark workloads.

Each workload runs a fixed panel of circuits or requests; the seed drives the
panel's order and the shot streams, so the same seed gives the same inputs.
Workloads drive the library through public calls only.  The runner calls:

setup()          everything up to "ready" (counted in setup_s);
prepare(i)       untimed: the input of operation i;
op(inp)          timed: one operation, raising on a failed check;
absorb(inp, out) untimed: keep what the post-run checks need and return a
                 byte fingerprint of the output (determinism digests);
checks()         untimed: run-level checks, as (name, ok, detail) triples.

Operations are closed-loop: one process, one thread, the next operation
starts when the previous one returned.
"""

from __future__ import annotations

import random
from collections import Counter

from lambda_hvm import hvm, pauli, polytope, presets, stabilizer

CHI_P_MIN = 1e-6          # per-test false-alarm chance; a run makes < 1000 tests
VERTEX_COUNTS = {2: 8, 3: 81, 4: 256}


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def line_groups(d: int, n: int):
    """The distinct cyclic measurement groups <p>, in canonical order."""
    groups = {}
    for p in pauli.phase_space(d, n):
        if p.is_zero():
            continue
        g = hvm.MeasureOp(p).group()
        groups.setdefault(g.key(), g)
    return [groups[k] for k in sorted(groups)]


class Workload:
    name = ""
    d = 0
    mode = "exact"
    min_ops = 1
    panel = 1               # a run stops only after a whole panel of operations

    def __init__(self, seed: int):
        self.seed = seed

    def build_vertex_set(self):
        self.hrep = polytope.lambda_hrep(self.d, 1)
        self.vset = polytope.enumerate_vertices(self.hrep)

    def vertex_checks(self, certify: bool):
        expected = VERTEX_COUNTS[self.d]
        yield "vertex_count", len(self.vset) == expected, f"{len(self.vset)} vertices, expected {expected}"
        if certify:
            bad = [v.index for v in self.vset
                   if not isinstance(polytope.certify_vertex(v.coords, self.hrep),
                                     polytope.VertexCertificate)]
            yield "vertices_certify", not bad, f"uncertified vertices: {bad[:5]}"

    def reset_for_replay(self) -> None:
        """Return to the state the timed phase started from."""

    def checks(self):
        return []

    def guard(self, tracer):
        """Install a guard probe for the timed phase (optional)."""

    def work(self, out) -> int:
        return 1


def _shot_bytes(records) -> bytes:
    return "\n".join(f"{r.shot},{','.join(map(str, r.outcomes))},{r.final_vertex}"
                     for r in records).encode()


# ---------------------------------------------------------------------------


class SampleWarm(Workload):
    """d=4, numeric mode: pure sampling over warm kernels and permutations.

    One operation runs a batch of shots on each circuit of a fixed panel;
    the seed drives the shot streams.  Per-shot cost differs by about 30%
    between random circuits, so seeded circuits moved the batch latency by
    that much between seeds.
    """

    name = "sample-warm-d4"
    d = 4
    mode = "numeric"
    circuits = 4
    depth = 6
    batch = 2500
    min_ops = 40

    def setup(self):
        self.build_vertex_set()
        d = self.d
        gates = pauli.clifford_generators(d, 1)
        zero = presets.preset_state("zero", d, 1)
        self.circs = [hvm.random_circuit(d, 1, self.depth, random.Random(f"{self.name}/circuit/{c}"),
                                         gates, zero, "zero")
                      for c in range(self.circuits)]
        self.model = hvm.HiddenVariableModel(self.vset, mode=self.mode)
        self.p_in = [self.model.decompose(c.state) for c in self.circs]
        for circuit, p_in in zip(self.circs, self.p_in):
            self._warm(circuit, p_in)
        self.counts = [Counter() for _ in self.circs]
        self.guard_tracer = None

    def _warm(self, circuit, p_in) -> None:
        """Fill every kernel and permutation a shot of the circuit can touch:
        walk the support forward through the exact positive-weight branches."""
        front = set(p_in.weights)
        for op in circuit.ops:
            if isinstance(op, hvm.CliffordOp):
                perm = self.model.clifford_permutation(op.element)
                front = {perm[a] for a in front}
            else:
                group = op.group()
                nxt = set()
                for a in front:
                    kern = self.model.kernel(a, group)
                    nxt.update(beta for beta, _ in kern.entries)
                front = nxt

    def prepare(self, i):
        rng = random.Random(f"{self.seed}/shots/{i}")
        return [rng.getrandbits(62) for _ in self.circs]

    def op(self, inp):
        return [hvm.run_shots(circuit, self.model, p_in, self.batch, shot_seed, threads=1)
                for circuit, p_in, shot_seed in zip(self.circs, self.p_in, inp)]

    def work(self, out) -> int:
        return sum(len(records) for records in out)

    def absorb(self, inp, out):
        if out is None:
            return b"failed"
        for counts, records in zip(self.counts, out):
            counts.update(r.outcomes for r in records)
        return b"\n--\n".join(_shot_bytes(records) for records in out)

    def guard(self, tracer):
        # A kernel miss decomposes a post-measurement state; the warm timed
        # phase must therefore make no decompose call at all.  Counting the
        # cold path leaves the per-shot path unwrapped.
        cls = hvm.HiddenVariableModel
        tracer.patch(cls, "decompose", tracer.counted(cls.decompose, "guard.decompose"))
        self.guard_tracer = tracer

    def checks(self):
        misses = self.guard_tracer.calls["guard.decompose"] if self.guard_tracer else 0
        out = [("warm_guard", misses == 0, f"{misses} kernel misses in the timed phase")]
        for c, circuit in enumerate(self.circs):
            shots = sum(self.counts[c].values())
            if not shots:
                continue
            probs = hvm.oracle_distribution(circuit)
            try:
                _, pval = hvm.chi_square(dict(self.counts[c]), probs, shots)
                out.append((f"chi_square[{c}]", pval > CHI_P_MIN, f"p={pval:.3g} over {shots} shots"))
            except AssertionError as exc:
                out.append((f"chi_square[{c}]", False, str(exc)))
        return out


# ---------------------------------------------------------------------------


class KernelCold(Workload):
    """d=3, exact mode: distinct kernel requests, so every one misses.

    The requests form a fixed panel in which each block of four covers the
    four measurement lines once (vertices drawn without replacement per
    line).  Each pass over the panel starts a fresh model, in a seeded order,
    so every request stays cold however many passes fit in a run.
    """

    name = "kernel-cold-d3"
    d = 3
    mode = "exact"
    panel = 40
    min_ops = 40

    def setup(self):
        self.build_vertex_set()
        self.groups = line_groups(self.d, 1)
        rng = random.Random(f"{self.name}/panel")
        nv, ng = len(self.vset), len(self.groups)
        perms = [rng.sample(range(nv), nv) for _ in range(ng)]
        self.requests = [(perms[gi][b], gi) for b in range(self.panel // ng) for gi in range(ng)]
        self.reset_for_replay()

    def reset_for_replay(self):
        self.kernels = []
        self._start_pass(0)

    def _start_pass(self, p: int):
        self.pass_no = p
        self.model = hvm.HiddenVariableModel(self.vset, mode=self.mode)
        self.order = random.Random(f"{self.seed}/order/{p}").sample(self.requests, self.panel)

    def prepare(self, i):
        p, k = divmod(i, self.panel)
        if p != self.pass_no:
            self._start_pass(p)
        return self.order[k]

    def op(self, inp):
        alpha, gi = inp
        return self.model.kernel(alpha, self.groups[gi])

    def absorb(self, inp, out):
        if out is None:
            return b"failed"
        self.kernels.append((inp, out))
        ents = sorted((beta, ri, w.serialize()) for (beta, ri), w in out.entries.items())
        return repr((out.alpha, [m.serialize() for m in out.marginals], ents)).encode()

    def checks(self):
        seen = set()
        repeats = 0
        bad = []
        for (alpha, gi), kern in self.kernels:
            if id(kern) in seen:
                repeats += 1
            seen.add(id(kern))
            try:
                self._check_kernel(alpha, self.groups[gi], kern)
            except CheckFailed as exc:
                bad.append(f"({alpha},{gi}): {exc}")
        n = len(self.kernels)
        return [("cold_guard", repeats == 0, f"{repeats} of {n} distinct requests hit the cache"),
                ("kernel_exact", not bad, "; ".join(bad[:3]))]

    def _check_kernel(self, alpha, group, kern):
        require(kern.alpha == alpha and kern.group.key() == group.key(),
                "kernel returned for another request")
        a_mat = self.vset[alpha].matrix
        for ri, r in enumerate(stabilizer.value_assignments(group)):
            t = hvm.trace_with_projector(group, r, a_mat)
            require(kern.marginals[ri] == t, f"marginal {ri} differs from Tr(Pi A)")
            branch = kern.branch(ri)
            if t.is_zero():
                require(not branch, f"branch {ri} has weight on a zero-probability outcome")
                continue
            proj = stabilizer.projector_matrix(group.d, group.n, group.elements, r.as_dict())
            inv = t.inverse()
            acc = None
            for beta, q in branch:
                term = self.vset[beta].matrix.scale(q * inv)
                acc = term if acc is None else acc + term
            require(acc is not None and acc == (proj @ a_mat @ proj).scale(inv),
                    f"branch {ri} does not reconstruct Pi A Pi / t")


# ---------------------------------------------------------------------------


class JobExact(Workload):
    """d=2, exact mode: what one CLI simulate/verify call pays, end to end.

    The circuits form a fixed panel of 100 seeded random depth-8 circuits
    (hvm.random_circuit, T/H input alternating) that each pass runs in a
    seeded order; the seed also drives each job's shots.  Job cost varies
    about 10x with the circuit, and seeded sets of 100 circuits moved the
    median job time by about 25% between seeds.
    """

    name = "job-exact-d2"
    d = 2
    mode = "exact"
    depth = 8
    shots = 300
    panel = 100
    min_ops = 100

    def setup(self):
        self.build_vertex_set()
        gates = pauli.clifford_generators(self.d, 1)
        states = {name: presets.preset_state(name, self.d, 1) for name in ("T", "H")}
        self.circuits = []
        for j in range(self.panel):
            name = "T" if j % 2 == 0 else "H"
            rng = random.Random(f"{self.name}/job/{j}")
            self.circuits.append(hvm.random_circuit(self.d, 1, self.depth, rng, gates, states[name], name))
        self.order_round, self.order = None, None

    def prepare(self, i):
        r, pos = divmod(i, self.panel)
        if r != self.order_round:
            self.order_round = r
            self.order = random.Random(f"{self.seed}/order/{r}").sample(range(self.panel), self.panel)
        shot_seed = random.Random(f"{self.seed}/shots/{i}").getrandbits(62)
        return self.circuits[self.order[pos]], shot_seed

    def op(self, inp):
        circuit, shot_seed = inp
        model = hvm.HiddenVariableModel(self.vset, mode=self.mode)
        dist = model.decompose(circuit.state)
        hvm.verify_circuit_born(circuit, model)
        probs = hvm.oracle_distribution(circuit)
        require(abs(sum(probs.values()) - 1.0) < 1e-9, "oracle probabilities do not sum to 1")
        records = hvm.run_shots(circuit, model, dist, self.shots, shot_seed, threads=1)
        counts = Counter(r.outcomes for r in records)
        _, pval = hvm.chi_square(dict(counts), probs, self.shots)
        require(pval > CHI_P_MIN, f"chi-square p={pval:.3g} against the oracle")
        return records

    def absorb(self, inp, out):
        return b"failed" if out is None else _shot_bytes(out)


WORKLOADS = {w.name: w for w in (SampleWarm, KernelCold, JobExact)}
