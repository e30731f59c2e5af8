"""One benchmark process: a fresh interpreter that sets up one workload and,
in the main role, runs its timed phase, its checks and (when traced) a traced
replay of the same operations.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --role main|probe --spawned MONOTONIC

--spawned is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers the
interpreter start and the imports.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
import layers  # noqa: E402

TRACE_DIR = ROOT / ".bench_trace"
HEAD_OPS = 1            # operations a set-up probe repeats for the determinism check


def run_ops(wl, count, seconds, cap_s, op=None):
    """Closed loop: operations back to back for `seconds`, for at least
    wl.min_ops of them and up to the end of a panel (never past cap_s), or
    exactly `count` when given.

    Outputs are reduced to two digests as they come: of the first HEAD_OPS
    operations and of all of them.  `op` replaces wl.op, e.g. by a traced
    wrapper."""
    op = op or wl.op
    lat, failed, work = [], 0, 0
    head, full = hashlib.sha256(), hashlib.sha256()
    start = time.perf_counter()
    i = 0
    while True:
        inp = wl.prepare(i)
        t0 = time.perf_counter()
        try:
            out = op(inp)
        except Exception:  # the op boundary keeps running; the failure is counted
            traceback.print_exc(file=sys.stderr)
            out = None
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        if out is None:
            failed += 1
        else:
            work += wl.work(out)
        fp = wl.absorb(inp, out)
        for h in (head, full) if i < HEAD_OPS else (full,):
            h.update(len(fp).to_bytes(8, "little"))
            h.update(fp)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif t1 - start >= cap_s or (
                t1 - start >= seconds and i >= wl.min_ops and i % wl.panel == 0):
            break
    return {"lat": lat, "failed": failed, "work": work,
            "head_digest": head.hexdigest(), "digest": full.hexdigest()}


def run_checks(named):
    out = []
    for name, ok, detail in named:
        out.append({"name": name, "ok": bool(ok), "detail": "" if ok else detail})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "probe"), default="main")
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("the benchmark needs the library's asserts: run without -O", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    traced = bool(args.trace) and args.role == "main"
    tracer = Tracer() if traced else None
    seen_kernels: dict = {}
    if traced:
        layers.install(tracer, seen_kernels)
    (tracer.timed(wl.setup, "bench.setup", span=True) if traced else wl.setup)()
    setup_s = time.monotonic() - args.spawned
    result = {"role": args.role, "setup_s": setup_s}
    if traced:
        setup_stats = tracer.take()
        tracer.restore()

    if args.role == "probe":
        ops = run_ops(wl, HEAD_OPS, 0, 0)
        result["head_digest"] = ops["head_digest"]
        result["failed_ops"] = ops["failed"]
        result["checks"] = run_checks(wl.vertex_checks(certify=False))
        print(json.dumps(result))
        return 0

    guard = Tracer()
    wl.guard(guard)
    try:
        ops = run_ops(wl, None, args.seconds, cap_s=max(4 * args.seconds, 60.0))
    finally:
        guard.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(lat=ops["lat"], work=ops["work"], failed_ops=ops["failed"],
                  head_digest=ops["head_digest"])
    checks = run_checks(list(wl.vertex_checks(certify=True)) + list(wl.checks()))

    if traced:
        n = len(ops["lat"])
        wl.reset_for_replay()
        layers.install(tracer, seen_kernels)
        tracer.phase = "run"
        # Each replayed operation is a root span, so the spans of one request
        # share its id as their root.
        try:
            replay = run_ops(wl, n, 0, 0, op=tracer.timed(wl.op, "bench.op", span=True))
        finally:
            run_stats = tracer.take()
            tracer.restore()
        checks += run_checks([
            ("replay_identical", replay["digest"] == ops["digest"],
             "traced replay gave different outputs than the timed phase"),
        ])
        metrics = layers.per_layer_metrics(setup_stats, run_stats)
        # Paired per operation, so that caches the first timed operations
        # filled do not read as negative overhead.
        ratios = [t / u for t, u in zip(replay["lat"], ops["lat"])]
        metrics["trace.replay_s"] = {"value": sum(replay["lat"]), "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": (statistics.median(ratios) - 1.0) * 100.0,
                                         "unit": "%"}
        result["per_layer"] = metrics
        result["replay_ops"], result["replay_failed_ops"] = n, replay["failed"]
        dump_spans(tracer, args, metrics)
    result["checks"] = checks
    print(json.dumps(result))
    return 0


def dump_spans(tracer, args, metrics) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
