"""Command-line surface: vertex enumeration, state decomposition, circuit
simulation with oracle comparison, and the verification suites.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 infeasible input.
Identical configuration and seed give byte-identical outputs; every error
path prints a single machine-parsable line "error: <reason>" on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycNumber
from .exact_lp import stats as lp_stats
from .hvm import (Circuit, CliffordOp, DecompositionInfeasible, MeasureOp,
                  HiddenVariableModel, VertexSetIncomplete, chi_square,
                  oracle_distribution, oracle_stats, run_shots)
from .linalg import CycMatrix
from .pauli import CliffordElement, NotCliffordError, PhasePoint, clifford_generators
from .polytope import (detect_cnc_form, enumerate_vertices, lambda_hrep,
                       load_vertex_file, save_vertex_file)
from .polytope import stats as polytope_stats
from .presets import preset_state
from .checks import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _fail(code: int, reason: str) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return code


def _guard_dims(d: int, n: int) -> None:
    if d < 2:
        raise UsageError("qudit dimension d must be >= 2 (d = 1 is a trivial Hilbert space)")
    if n < 1:
        raise UsageError("qudit count n must be >= 1")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# circuit parsing


def _parse_entry(x):
    if isinstance(x, str):
        return CycNumber.parse(x)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"{x!r} is neither a number nor a cyclotomic literal")


def parse_matrix(rows: list, d: int, n: int) -> CycMatrix:
    dim = d ** n
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise UsageError(f"matrix must be {dim}x{dim}")
    try:
        return CycMatrix([[_parse_entry(x) for x in row] for row in rows])
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad matrix entry: {exc}") from exc


def parse_state(spec, d: int, n: int) -> tuple[CycMatrix, str]:
    if isinstance(spec, dict) and "preset" in spec:
        name = spec["preset"]
        try:
            return preset_state(name, d, n), name
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if isinstance(spec, dict) and "matrix" in spec:
        mat = parse_matrix(spec["matrix"], d, n)
        if not mat.is_hermitian() or not mat.trace() == 1:
            raise UsageError("input state must be Hermitian with unit trace")
        return mat, "matrix"
    raise UsageError('state must be {"preset": NAME} or {"matrix": [[...]]}')


def parse_circuit(text: str) -> Circuit:
    """Parse the JSON circuit format, validating gates and labels."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise UsageError("circuit must be a JSON object")
    for key in ("d", "n", "state", "ops"):
        if key not in doc:
            raise UsageError(f"circuit is missing the {key!r} field")
    for key in ("d", "n"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise UsageError(f"circuit field {key!r} must be an integer, got {doc[key]!r}")
    if not isinstance(doc["ops"], list):
        raise UsageError(f"circuit field 'ops' must be a list, got {doc['ops']!r}")
    d, n = doc["d"], doc["n"]
    _guard_dims(d, n)
    state, state_name = parse_state(doc["state"], d, n)
    gates = {g.name: g for g in _generators(d, n)}
    ops = []
    for pos, op in enumerate(doc["ops"]):
        where = f"ops[{pos}]"
        if not isinstance(op, dict) or len(op) != 1:
            raise UsageError(f"{where}: each op is one of {{'measure': ...}} or {{'clifford': ...}}")
        if "measure" in op:
            body = op["measure"]
            if not isinstance(body, dict) or not isinstance(body.get("a"), str):
                raise UsageError(f"{where}: a measure op is {{'measure': {{'a': LABEL}}}}")
            try:
                point = PhasePoint.parse(body["a"], d)
            except ValueError as exc:
                raise UsageError(f"{where}: bad measurement label: {exc}")
            if point.n != n:
                raise UsageError(f"{where}: measurement label has {point.n} sites, expected {n}")
            if point.is_zero():
                raise UsageError(f"{where}: trivial measurement: label a = 0")
            ops.append(MeasureOp(point))
        elif "clifford" in op:
            body = op["clifford"]
            if not isinstance(body, dict):
                raise UsageError(f"{where}: clifford op needs 'gate' or 'matrix'")
            if "gate" in body:
                name = body["gate"]
                if not isinstance(name, str) or name not in gates:
                    raise UsageError(f"{where}: unknown gate {name!r}; available: {sorted(gates)}")
                ops.append(CliffordOp(gates[name], name))
            elif "matrix" in body:
                mat = parse_matrix(body["matrix"], d, n)
                try:
                    elem = CliffordElement(d, n, mat, name=f"matrix@{pos}")
                except NotCliffordError as exc:
                    raise UsageError(f"{where}: {exc}")
                ops.append(CliffordOp(elem, f"matrix@{pos}"))
            else:
                raise UsageError(f"{where}: clifford op needs 'gate' or 'matrix'")
        else:
            raise UsageError(f"{where}: unknown op kind {sorted(op)}")
    return Circuit(d, n, state, state_name, tuple(ops))


# ---------------------------------------------------------------------------
# commands


def _vertex_set(args):
    if not args.vertices:
        return enumerate_vertices(lambda_hrep(args.d, args.n))
    vset = load_vertex_file(args.vertices)
    if (vset.d, vset.n) != (args.d, args.n):
        raise UsageError(f"vertex file is for d={vset.d}, n={vset.n}; "
                         f"flags say d={args.d}, n={args.n}")
    return vset


@lru_cache(maxsize=None)
def _generators(d: int, n: int) -> tuple[CliffordElement, ...]:
    """One set of generator elements shared by the circuit gates and the
    closure check, so a model computes each one's permutation once."""
    return tuple(clifford_generators(d, n))


def _model(args, mode: str) -> HiddenVariableModel:
    """A model over the command's vertex set.  A loaded --vertices file must
    be closed under the generators, whose permutations are computed here, so
    a missing vertex is named before the command starts."""
    model = HiddenVariableModel(_vertex_set(args), mode)
    if args.vertices:
        for g in _generators(args.d, args.n):
            model.clifford_permutation(g)
    return model


def clifford_orbits(vset, gens=None):
    """Orbit partition of the vertex set under the generated Clifford group.

    Returns (orbits, cnc_flags): each orbit is a sorted index list; the cnc
    flag is decided on one representative, since conjugation preserves the
    phase-point form.
    """
    if gens is None:
        gens = clifford_generators(vset.d, vset.n)
    model = HiddenVariableModel(vset, mode="exact")
    perms = [model.clifford_permutation(g).tolist() for g in gens]
    seen: set[int] = set()
    orbits = []
    cnc_flags = []
    for start in range(len(vset)):
        if start in seen:
            continue
        frontier = [start]
        orbit = {start}
        while frontier:
            nxt = []
            for a in frontier:
                for perm in perms:
                    b = perm[a]
                    if b not in orbit:
                        orbit.add(b)
                        nxt.append(b)
            frontier = nxt
        seen |= orbit
        orbits.append(sorted(orbit))
        cnc_flags.append(detect_cnc_form(vset[start].matrix, vset.d, vset.n) is not None)
    return orbits, cnc_flags


def cmd_vertices(args) -> int:
    _guard_dims(args.d, args.n)
    vset = _vertex_set(args)
    d, n = args.d, args.n
    orbits, cnc_flags = clifford_orbits(vset)
    cnc = sum(len(o) for o, f in zip(orbits, cnc_flags) if f)
    if args.out:
        save_vertex_file(args.out, vset)
    summary = {
        "d": d, "n": n,
        "vertex_count": len(vset),
        "facet_count": vset.hrep.facet_count(),
        "clifford_orbit_sizes": sorted((len(o) for o in orbits), reverse=True),
        "cnc_type_orbits": sum(1 for f in cnc_flags if f),
        "cnc_type_vertices": cnc,
        "out": args.out,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_decompose(args) -> int:
    _guard_dims(args.d, args.n)
    if args.state.startswith("@"):
        with open(args.state[1:]) as fh:
            doc = json.load(fh)
        rho, name = parse_state(doc, args.d, args.n)
    else:
        rho, name = parse_state({"preset": args.state}, args.d, args.n)
    model = _model(args, args.mode)
    try:
        dist = model.decompose(rho)
    except DecompositionInfeasible as exc:
        print(json.dumps({"state": name, "feasible": False,
                          "violated": exc.violated[0]}, sort_keys=True))
        return _fail(EXIT_INFEASIBLE, f"state is outside the polytope: {exc.violated[0]}")
    if args.mode == "exact":
        residual = "0 (exact)"
        weights = {str(k): (str(w) if isinstance(w, Fraction) else w.serialize())
                   for k, w in sorted(dist.weights.items())}
    else:
        import numpy as np
        residual = float(np.max(np.abs(dist.reconstruct_complex() - rho.to_complex())))
        weights = {str(k): w for k, w in sorted(dist.weights.items())}
    doc = {"d": args.d, "n": args.n, "state": name, "mode": args.mode,
           "feasible": True, "weights": weights, "residual": residual}
    payload = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def _library_counters() -> dict[str, dict[str, int]]:
    """Copies of the process-wide counters of the LP, the vertex
    certificates and the oracle; `simulate --stats` reports what the
    command added to them, so earlier calls in the process do not count."""
    return {"exact_lp": dict(lp_stats), "polytope": dict(polytope_stats),
            "oracle": dict(oracle_stats)}


def cmd_simulate(args) -> int:
    if args.shots < 1:
        raise UsageError(f"--shots must be >= 1, got {args.shots}")
    start = _library_counters()
    with open(args.circuit) as fh:
        circuit = parse_circuit(fh.read())
    if (circuit.d, circuit.n) != (args.d, args.n):
        raise UsageError(f"circuit is for d={circuit.d}, n={circuit.n}; "
                         f"flags say d={args.d}, n={args.n}")
    model = _model(args, args.mode)
    dist = model.decompose(circuit.state)
    records = run_shots(circuit, model, dist, args.shots, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            k = circuit.measurement_count()
            writer.writerow(["shot"] + [f"outcome_{i}" for i in range(k)] + ["final_vertex"])
            for rec in records:
                writer.writerow([rec.shot] + list(rec.outcomes) + [rec.final_vertex])
    counts: dict[tuple[int, ...], int] = {}
    for rec in records:
        counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
    summary = {"d": args.d, "n": args.n, "state": circuit.state_name,
               "shots": args.shots, "seed": args.seed, "mode": args.mode,
               "out": args.out, "comparison": []}
    if circuit.measurement_count() == 0:
        summary["note"] = "circuit has no measurements; empty outcome records"
    else:
        probs = oracle_distribution(circuit)
        for outcome in sorted(set(probs) | set(counts)):
            summary["comparison"].append({
                "outcome": list(outcome),
                "oracle": probs.get(outcome, 0.0),
                "frequency": counts.get(outcome, 0) / args.shots,
            })
        stat, pval = chi_square(counts, probs, args.shots)
        summary["chi_square"] = stat
        summary["p_value"] = pval
    if args.stats:
        summary["stats"] = {"model": dict(model.stats)}
        for name, now in _library_counters().items():
            summary["stats"][name] = {key: value - start[name][key] for key, value in now.items()}
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    _guard_dims(args.d, args.n)
    checks = run_suite(args.suite, args.d, args.n, seed=args.seed)
    passed = all(c["passed"] for c in checks)
    doc = {"suite": args.suite, "d": args.d, "n": args.n, "seed": args.seed,
           "passed": passed, "checks": checks}
    payload = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    if not passed:
        return _fail(EXIT_VERIFY, "verification suite reported failures; see the JSON report")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-hvm",
        description="Hidden-variable simulator over the dual of the stabilizer polytope")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        p.add_argument("-d", type=int, default=2, help="qudit dimension (>= 2)")
        p.add_argument("-n", type=int, default=1, help="number of qudits")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if "mode" in flags:
            p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
        if "vertices" in flags:
            p.add_argument("--vertices", metavar="FILE", help="load a saved vertex-set file")
        p.add_argument("--out", metavar="FILE", help="output file")

    p_vert = sub.add_parser("vertices", help="enumerate and certify polytope vertices")
    common(p_vert, "vertices")
    p_vert.set_defaults(func=cmd_vertices)

    p_dec = sub.add_parser("decompose", help="decompose a state over the vertices")
    common(p_dec, "mode", "vertices")
    p_dec.add_argument("--state", required=True,
                       help="preset name, or @FILE with a state JSON document")
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="run the sampling simulator on a circuit")
    common(p_sim, "seed", "mode", "vertices")
    p_sim.add_argument("circuit", help="circuit JSON file")
    p_sim.add_argument("--shots", type=int, default=10000)
    p_sim.add_argument("--stats", action="store_true",
                       help="add the model's cache and decomposition-path counters and the LP, "
                            "certificate and oracle counts of this command to the JSON summary")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver, "seed")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except DecompositionInfeasible as exc:
        return _fail(EXIT_INFEASIBLE, str(exc))
    except VertexSetIncomplete as exc:
        return _fail(EXIT_USAGE, f"vertex set is incomplete: {exc}")
    except (ValueError, OSError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
