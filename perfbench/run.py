"""Benchmark entry point for lambda-hvm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout's own sources (src/lambda_hvm), checks
its outputs and prints, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced replay, including the tracing overhead.

Every set-up runs in a fresh interpreter (the library keeps process-wide
caches).  With --trace 0 the main process is followed by two set-up probes;
setup_s is the median of the three, and each probe re-runs the first
operations so that outputs are compared across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("sample-warm-d4", "kernel-cold-d3", "job-exact-d2")
PROBES = 2
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from measure import environment_stamp, hd_percentile, tail_percentile  # noqa: E402

END_TO_END = (
    # name, unit
    ("work_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.p75", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Workload-specific names of the same quantities, printed in the summary.
ALIASES = {
    "sample-warm-d4": ("shots_per_s", "round_ms"),
    "kernel-cold-d3": ("kernels_per_s", "kernel_ms"),
    "job-exact-d2": ("jobs_per_s", "job_ms"),
}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)          # keep the library's asserts armed
    env.pop("LAMBDA_HVM_THREADS", None)      # threads=1 is passed explicitly anyway
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, role: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {role} process")
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
           "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=None, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lambda_hvm" / "__init__.py").is_file():
        print(f"library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment_stamp()
    print(f"lambda-hvm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        main_res = run_worker(args, "main", deadline)
        probes = [] if args.trace else [run_worker(args, "probe", deadline) for _ in range(PROBES)]
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = list(main_res["checks"])
    for k, probe in enumerate(probes):
        checks += [dict(c, name=f"probe{k}.{c['name']}") for c in probe["checks"]]
        checks.append({"name": f"probe{k}.deterministic",
                       "ok": probe["head_digest"] == main_res["head_digest"] and not probe["failed_ops"],
                       "detail": "a fresh process produced different outputs for the same seed"})
    bad_checks = [c for c in checks if not c["ok"]]
    attempted = len(main_res["lat"]) + main_res.get("replay_ops", 0) + len(checks)
    failed = main_res["failed_ops"] + main_res.get("replay_failed_ops", 0) + len(bad_checks)

    for c in bad_checks:
        print(f"CHECK FAILED {c['name']}: {c['detail']}")
    print(f"checks: {len(checks) - len(bad_checks)}/{len(checks)} passed; "
          f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")

    if args.trace:
        metrics = main_res["per_layer"]
    else:
        metrics = end_to_end(args.workload, main_res, probes)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(workload: str, main_res: dict, probes: list) -> dict:
    lat = main_res["lat"]
    lat_ms = [x * 1000.0 for x in lat]
    setups = [main_res["setup_s"]] + [p["setup_s"] for p in probes]
    values = {
        "work_per_s": main_res["work"] / sum(lat),
        "call_ms.p50": hd_percentile(lat_ms, 50.0),
        "call_ms.p75": hd_percentile(lat_ms, 75.0),
        "peak_rss_mb": main_res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    rate_name, lat_name = ALIASES[workload]
    tail = tail_percentile(len(lat_ms))
    print(f"{rate_name} {values['work_per_s']:.6g} 1/s over {len(lat_ms)} operations; "
          f"{lat_name}.p50 {values['call_ms.p50']:.6g} ms; "
          + (f"{lat_name}.p{tail:g} {hd_percentile(lat_ms, tail):.6g} ms" if tail
             else "too few calls for a tail percentile"))
    print("setup_s samples " + " ".join(f"{s:.4g}" for s in setups))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


if __name__ == "__main__":
    sys.exit(main())
