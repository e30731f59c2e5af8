"""Per-layer probes on the library's public calls, and the per-layer metrics
computed from them.

The probes wrap functions from outside the library: a name bound by
`from ... import` in another module is patched in that module too, so the
call is seen wherever it is looked up.  Metrics of the polytope, linalg and
dd layers, and those prefixed `setup.`, are taken over the set-up; all others
over the traced replay of the timed phase.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from lambda_hvm import cyclotomic, dd, exact_lp, hvm, linalg, pauli, polytope, stabilizer

CycNumber = cyclotomic.CycNumber


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lambda_hvm" or name.startswith("lambda_hvm."))]


def install(tracer, seen_kernels: dict) -> None:
    """Wrap every probed call; tracer.restore() removes them all.

    seen_kernels maps id -> kernel object for every kernel returned so far;
    the caller keeps it across installs so a later phase counts a cached
    kernel as a hit.
    """
    mods = _library_modules()

    def function(fn, name, **kw):
        tracer.patch_everywhere(mods, fn, tracer.timed(fn, name, **kw))

    def method(cls, attr, wrapper):
        tracer.patch_everywhere([cls], cls.__dict__[attr], wrapper)

    def count(key):
        def observe(result, args):
            tracer.count(key, len(result))
        return observe

    # set-up layers
    function(polytope.lambda_hrep, "polytope.lambda_hrep", span=True)
    function(polytope.enumerate_vertices, "polytope.enumerate_vertices", span=True)
    function(polytope.certify_vertex, "polytope.certify_vertex", span=True)
    function(polytope.membership, "polytope.membership")
    function(linalg.exact_rank, "linalg.exact_rank")
    function(linalg.exact_solve, "linalg.exact_solve")
    function(dd.extreme_rays, "dd.extreme_rays", span=True, observe=count("dd.rays"))

    # exact LP: the rational backend returns Fractions, the field one CycNumbers
    def lp_kind(result, args):
        if result and isinstance(result[0], Fraction):
            tracer.count("exact_lp.feasible_point.rational")
    function(exact_lp.feasible_point, "exact_lp.feasible_point", span=True, observe=lp_kind)

    # hvm: spans for calls made per request, timers for per-shot calls
    model = hvm.HiddenVariableModel

    def first_seen(kern):
        # A miss returns a kernel object never returned before; a warm hit
        # returns the cached object and records no span.
        if kern is None or id(kern) in seen_kernels:
            return False
        seen_kernels[id(kern)] = kern
        tracer.count("hvm.kernel.misses")
        return True

    method(model, "kernel", tracer.timed(model.kernel, "hvm.kernel", span=True, keep=first_seen))
    method(model, "decompose", tracer.timed(model.decompose, "hvm.decompose", span=True))
    method(model, "clifford_permutation",
           tracer.timed(model.clifford_permutation, "hvm.clifford_permutation"))
    function(hvm.simulate_run, "hvm.simulate_run")
    function(hvm.run_shots, "hvm.run_shots", span=True)
    function(hvm.oracle_simulate, "hvm.oracle_simulate", span=True, observe=count("hvm.oracle.branches"))
    function(hvm.verify_circuit_born, "hvm.verify_circuit_born", span=True)
    function(hvm.chi_square, "hvm.chi_square", span=True)
    function(stabilizer.projector_matrix, "stabilizer.projector_matrix")
    method(pauli.CliffordElement, "apply", tracer.timed(pauli.CliffordElement.apply, "pauli.apply"))

    # cyclotomic arithmetic: the sign test is timed, the dunders only counted
    def irrational(result, args):
        if not args[0].is_rational():
            tracer.count("cyclotomic.sign.irrational")
    method(CycNumber, "sign", tracer.timed(CycNumber.sign, "cyclotomic.sign", observe=irrational))
    method(CycNumber, "interval", tracer.counted(
        CycNumber.interval, "cyclotomic.interval",
        when=lambda stack: bool(stack) and stack[-1][2] == "cyclotomic.sign"))
    method(CycNumber, "__add__", tracer.counted(CycNumber.__add__, "cyclotomic.add"))
    method(CycNumber, "__mul__", tracer.counted(CycNumber.__mul__, "cyclotomic.mul"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (name, unit, better, phase, value(stats)) -- stats has calls/total_s/self_s
def _c(key):
    return lambda s: s["calls"].get(key, 0)


def _t(key):
    return lambda s: s["total_s"].get(key, 0.0)


def _self(key):
    return lambda s: s["self_s"].get(key, 0.0)


PER_LAYER = [
    ("cyclotomic.sign.calls", "count", "lower", "run", _c("cyclotomic.sign")),
    ("cyclotomic.sign.s", "s", "lower", "run", _t("cyclotomic.sign")),
    ("cyclotomic.interval.calls", "count", "lower", "run", _c("cyclotomic.interval")),
    ("cyclotomic.sign.interval_ratio", "ratio", "lower", "run",
     lambda s: _ratio(_c("cyclotomic.interval")(s), _c("cyclotomic.sign.irrational")(s))),
    ("cyclotomic.mul.calls", "count", "lower", "run", _c("cyclotomic.mul")),
    ("cyclotomic.add.calls", "count", "lower", "run", _c("cyclotomic.add")),
    ("exact_lp.feasible_point.calls", "count", "lower", "run", _c("exact_lp.feasible_point")),
    ("exact_lp.feasible_point.s", "s", "lower", "run", _t("exact_lp.feasible_point")),
    ("exact_lp.feasible_point.rational_frac", "ratio", "higher", "run",
     lambda s: _ratio(_c("exact_lp.feasible_point.rational")(s), _c("exact_lp.feasible_point")(s))),
    ("hvm.kernel.calls", "count", "lower", "run", _c("hvm.kernel")),
    ("hvm.kernel.misses", "count", "lower", "run", _c("hvm.kernel.misses")),
    ("hvm.kernel.hit_ratio", "ratio", "higher", "run",
     lambda s: _ratio(_c("hvm.kernel")(s) - _c("hvm.kernel.misses")(s), _c("hvm.kernel")(s))),
    ("hvm.kernel.self_s", "s", "lower", "run", _self("hvm.kernel")),
    ("hvm.decompose.calls", "count", "lower", "run", _c("hvm.decompose")),
    ("hvm.decompose.s", "s", "lower", "run", _t("hvm.decompose")),
    ("hvm.run_shots.s", "s", "lower", "run", _t("hvm.run_shots")),
    ("hvm.simulate_run.self_s", "s", "lower", "run", _self("hvm.simulate_run")),
    ("hvm.shots", "count", "higher", "run", _c("hvm.simulate_run")),
    ("hvm.clifford_permutation.s", "s", "lower", "run", _t("hvm.clifford_permutation")),
    ("pauli.apply.calls", "count", "lower", "run", _c("pauli.apply")),
    ("pauli.apply.s", "s", "lower", "run", _t("pauli.apply")),
    ("hvm.oracle_simulate.s", "s", "lower", "run", _t("hvm.oracle_simulate")),
    ("hvm.oracle.branches", "count", "lower", "run", _c("hvm.oracle.branches")),
    ("hvm.verify_circuit_born.s", "s", "lower", "run", _t("hvm.verify_circuit_born")),
    ("hvm.chi_square.s", "s", "lower", "run", _t("hvm.chi_square")),
    ("stabilizer.projector_matrix.calls", "count", "lower", "run", _c("stabilizer.projector_matrix")),
    ("stabilizer.projector_matrix.s", "s", "lower", "run", _t("stabilizer.projector_matrix")),
    ("polytope.lambda_hrep.s", "s", "lower", "setup", _t("polytope.lambda_hrep")),
    ("polytope.enumerate_vertices.s", "s", "lower", "setup", _t("polytope.enumerate_vertices")),
    ("polytope.enum_method.dd", "bool", "higher", "setup",
     lambda s: 1 if _c("dd.extreme_rays")(s) else 0),
    ("polytope.certify_vertex.calls", "count", "lower", "setup", _c("polytope.certify_vertex")),
    ("polytope.certify_vertex.s", "s", "lower", "setup", _t("polytope.certify_vertex")),
    ("polytope.membership.calls", "count", "lower", "setup", _c("polytope.membership")),
    ("linalg.exact_rank.calls", "count", "lower", "setup", _c("linalg.exact_rank")),
    ("linalg.exact_rank.s", "s", "lower", "setup", _t("linalg.exact_rank")),
    ("linalg.exact_solve.calls", "count", "lower", "setup", _c("linalg.exact_solve")),
    ("linalg.exact_solve.s", "s", "lower", "setup", _t("linalg.exact_solve")),
    ("dd.extreme_rays.s", "s", "lower", "setup", _t("dd.extreme_rays")),
    ("dd.rays", "count", "lower", "setup", _c("dd.rays")),
    ("setup.hvm.kernel.misses", "count", "lower", "setup", _c("hvm.kernel.misses")),
    ("setup.hvm.clifford_permutation.s", "s", "lower", "setup", _t("hvm.clifford_permutation")),
    ("setup.pauli.apply.calls", "count", "lower", "setup", _c("pauli.apply")),
    ("setup.pauli.apply.s", "s", "lower", "setup", _t("pauli.apply")),
]


def per_layer_metrics(setup_stats: dict, run_stats: dict) -> dict:
    stats = {"setup": setup_stats, "run": run_stats}
    return {name: {"value": fn(stats[phase]), "unit": unit}
            for name, unit, _, phase, fn in PER_LAYER}
