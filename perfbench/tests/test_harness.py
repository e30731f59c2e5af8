"""Tests for the benchmark harness's own pieces.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from measure import hd_percentile, samples_beyond, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_harrell_davis_percentile():
    values = [float(x) for x in range(1, 102)]
    assert hd_percentile(values, 50) == pytest.approx(51.0)
    assert 75.0 < hd_percentile(values, 75) < 77.0
    assert hd_percentile([3.0] * 7, 75) == pytest.approx(3.0)
    # one sample crossing a gap moves the estimate by a fraction of the gap
    gap = [1.0] * 20 + [2.0] * 20
    moved = [1.0] * 19 + [2.0] * 21
    assert abs(hd_percentile(moved, 50) - hd_percentile(gap, 50)) < 0.2
    with pytest.raises(ValueError):
        hd_percentile([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(39) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(10000) == 99.9
    for n in (20, 40, 57, 100, 250, 1000, 12345):
        p = tail_percentile(n)
        assert samples_beyond(n, p) >= 10


def test_minimum_sample_counts_of_the_reported_percentiles():
    assert (samples_beyond(39, 75), samples_beyond(40, 75)) == (9, 10)
    assert (samples_beyond(99, 90), samples_beyond(100, 90)) == (9, 10)


# -- self time -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf_t = tr.timed(leaf, "leaf")

    def child():
        clock.advance(1.0)
        leaf_t()
        clock.advance(0.5)

    child_s = tr.timed(child, "child", span=True)

    def root():
        clock.advance(1.0)
        child_s()
        child_s()
        clock.advance(3.0)

    tr.timed(root, "root", span=True)()
    stats = tr.take()
    assert stats["total_s"] == {"leaf": 4.0, "child": 7.0, "root": 11.0}
    assert stats["self_s"] == {"leaf": 4.0, "child": 3.0, "root": 4.0}
    assert stats["calls"] == {"leaf": 2, "child": 2, "root": 1}
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root_span,) = by_name["root"]
    assert root_span["parent"] == 0
    assert root_span["end"] - root_span["start"] == 11.0
    assert [s["parent"] for s in by_name["child"]] == [root_span["id"]] * 2
    assert [s["self_s"] for s in by_name["child"]] == [1.5, 1.5]
    assert "leaf" not in by_name          # timers record no span
    assert tr.take()["calls"] == {}       # take() resets


def test_dropped_span_still_counts_and_children_of_kept_span_link_to_it():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    inner = tr.timed(lambda: clock.advance(1.0), "inner", span=True)

    def outer(miss):
        clock.advance(1.0)
        if miss:
            inner()
        return miss

    outer_t = tr.timed(outer, "outer", span=True, keep=bool)
    outer_t(False)
    outer_t(True)
    assert tr.calls["outer"] == 2
    kept = [s for s in tr.spans if s["name"] == "outer"]
    assert len(kept) == 1
    (inner_span,) = [s for s in tr.spans if s["name"] == "inner"]
    assert inner_span["parent"] == kept[0]["id"]


def test_failed_call_is_still_timed_and_popped():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.timed(boom, "boom", span=True)()
    assert tr.calls["boom"] == 1 and tr.total_s["boom"] == 1.0
    assert tr._stack == []


# -- patching and restoring ------------------------------------------------------


def _namespaces():
    import layers
    owners = layers._library_modules()
    from lambda_hvm import cyclotomic, hvm, pauli
    owners += [cyclotomic.CycNumber, hvm.HiddenVariableModel, pauli.CliffordElement]
    return {id(o): dict(vars(o)) for o in owners}


def test_traced_run_restores_every_patched_function():
    import layers
    from lambda_hvm import cyclotomic, exact_lp, hvm

    before = _namespaces()
    original_lp = exact_lp.feasible_point
    tr = Tracer()
    layers.install(tr, {})
    assert hvm.feasible_point is not original_lp          # patched where looked up
    assert hvm.feasible_point is exact_lp.feasible_point  # and where defined
    Cyc = cyclotomic.CycNumber
    assert Cyc.__radd__ is Cyc.__add__                     # aliases follow
    tr.restore()
    assert not tr._patches
    after = _namespaces()
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, name
    assert hvm.feasible_point is original_lp


def test_kernel_hits_and_misses_are_told_apart():
    import layers
    from lambda_hvm import hvm, pauli, polytope

    vset = polytope.enumerate_vertices(polytope.lambda_hrep(2, 1))
    model = hvm.HiddenVariableModel(vset, mode="exact")
    group = hvm.MeasureOp(next(p for p in pauli.phase_space(2, 1) if not p.is_zero())).group()
    tr = Tracer()
    layers.install(tr, {})
    try:
        model.kernel(0, group)
        model.kernel(0, group)
        model.kernel(1, group)
    finally:
        tr.restore()
    stats = tr.take()
    metrics = layers.per_layer_metrics(stats, stats)
    assert metrics["hvm.kernel.calls"]["value"] == 3
    assert metrics["hvm.kernel.misses"]["value"] == 2
    assert metrics["hvm.kernel.hit_ratio"]["value"] == pytest.approx(1 / 3)
    assert sum(1 for s in tr.spans if s["name"] == "hvm.kernel") == 2


# -- workload generator ---------------------------------------------------------


def test_job_panel_is_fixed_and_the_seed_drives_order_and_shots():
    import workloads

    a, b = workloads.JobExact(seed=5), workloads.JobExact(seed=6)
    a.setup()
    b.setup()
    assert repr(a.circuits) == repr(b.circuits)              # one panel for every seed
    assert {c.state_name for c in a.circuits} == {"T", "H"}
    first = [a.prepare(i) for i in range(3)]
    assert first == [a.prepare(i) for i in range(3)]         # seeded inputs repeat
    assert [x[1] for x in first] != [b.prepare(i)[1] for i in range(3)]
    order = [a.prepare(i)[0] for i in range(a.panel)]
    assert sorted(map(id, order)) == sorted(map(id, a.circuits))   # a pass covers the panel


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    import layers
    import run
    import workloads

    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_spec = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer_spec == [(n, u, b) for n, u, b, _, _ in layers.PER_LAYER] + [
        ("trace.replay_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
