"""Command-line interface: commands, exit codes, file round trips."""

import hashlib
import json

import pytest

from lambda_hvm.cli import main, parse_circuit
from lambda_hvm.hvm import STAT_NAMES


CIRCUIT_T = json.dumps({
    "d": 2, "n": 1,
    "state": {"preset": "T"},
    "ops": [{"measure": {"a": "Z:(1)|X:(0)"}}],
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_circuit_valid():
    circ = parse_circuit(CIRCUIT_T)
    assert circ.d == 2 and circ.n == 1
    assert circ.measurement_count() == 1


def test_parse_circuit_errors():
    from lambda_hvm.cli import UsageError

    with pytest.raises(UsageError, match="trivial measurement"):
        parse_circuit(json.dumps({"d": 2, "n": 1, "state": {"preset": "zero"},
                                  "ops": [{"measure": {"a": "Z:(0)|X:(0)"}}]}))
    with pytest.raises(UsageError, match="malformed JSON"):
        parse_circuit("{not json")
    with pytest.raises(UsageError, match="unknown gate"):
        parse_circuit(json.dumps({"d": 2, "n": 1, "state": {"preset": "zero"},
                                  "ops": [{"clifford": {"gate": "nope"}}]}))
    # a unitary that is not Clifford is rejected naming the offending label
    t_gate = [["8; 1,0,0,0", "8; 0,0,0,0"], ["8; 0,0,0,0", "8; 0,1,0,0"]]
    with pytest.raises(UsageError, match="not a Pauli"):
        parse_circuit(json.dumps({"d": 2, "n": 1, "state": {"preset": "zero"},
                                  "ops": [{"clifford": {"matrix": t_gate}}]}))


ZERO_STATE = {"preset": "zero"}
MALFORMED_CIRCUITS = {
    "d-null": ({"d": None, "n": 1, "state": ZERO_STATE, "ops": []},
               "circuit field 'd' must be an integer, got None"),
    "ops-not-a-list": ({"d": 2, "n": 1, "state": ZERO_STATE, "ops": 5},
                       "circuit field 'ops' must be a list, got 5"),
    "measure-body-string": ({"d": 2, "n": 1, "state": ZERO_STATE,
                             "ops": [{"measure": "Z:(1)|X:(0)"}]},
                            "ops[0]: a measure op is {'measure': {'a': LABEL}}"),
    "matrix-entry-list": ({"d": 2, "n": 1, "state": {"matrix": [[[1], 0], [0, 0]]}, "ops": []},
                          "bad matrix entry: [1] is neither a number nor a cyclotomic literal"),
    "top-level-list": (["d", "n", "state", "ops"], "circuit must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CIRCUITS))
def test_malformed_circuit_is_a_usage_error(tmp_path, capsys, case):
    """A JSON value of the wrong type exits 2 with one error line, not a
    traceback with the verification-failure code."""
    doc, reason = MALFORMED_CIRCUITS[case]
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "simulate", "-d", "2", "-n", "1", str(circ), "--shots", "5")
    assert code == 2
    assert stdout == ""
    assert err == f"error: {reason}\n"


def test_vertices_command(tmp_path, capsys):
    out = tmp_path / "v.txt"
    code, stdout, _ = run(capsys, "vertices", "-d", "2", "-n", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["vertex_count"] == 8
    assert doc["clifford_orbit_sizes"] == [8]
    assert doc["cnc_type_vertices"] == 8
    assert out.exists()


# The vertices summary and the sha256 of the --out file at d = 3 and 4,
# recorded from the dense Clifford images and exact-rank certificates.
VERTICES_SUMMARY = {
    3: {"vertex_count": 81, "facet_count": 12, "clifford_orbit_sizes": [72, 9],
        "cnc_type_orbits": 2, "cnc_type_vertices": 81},
    4: {"vertex_count": 256, "facet_count": 28, "clifford_orbit_sizes": [256],
        "cnc_type_orbits": 1, "cnc_type_vertices": 256},
}
VERTICES_OUT_SHA256 = {
    3: "236e0ff4c4acadd1cd80e00a940113fd1cefd7047135611b2c8570adf2f3a363",
    4: "3f9b98ce3c95a4157b25222b7402c17526e09c24068912ad141490b7b552bce5",
}


@pytest.mark.parametrize("d", [3, 4])
def test_vertices_summary_is_pinned(tmp_path, capsys, d):
    out = tmp_path / "v.txt"
    code, stdout, _ = run(capsys, "vertices", "-d", str(d), "-n", "1", "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert {k: doc[k] for k in VERTICES_SUMMARY[d]} == VERTICES_SUMMARY[d]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERTICES_OUT_SHA256[d]


def test_vertices_guard(capsys):
    code, _, err = run(capsys, "vertices", "-d", "1", "-n", "1")
    assert code == 2
    assert err.startswith("error:")


def test_vertex_file_for_another_system_is_a_usage_error(tmp_path, capsys):
    vfile = tmp_path / "v21.txt"
    run(capsys, "vertices", "-d", "2", "-n", "1", "--out", str(vfile))
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps({"d": 3, "n": 1, "state": {"preset": "zero"}, "ops": []}))
    for command in (["decompose", "--state", "zero"], ["simulate", str(circ)], ["vertices"]):
        code, stdout, err = run(capsys, *command, "-d", "3", "-n", "1", "--vertices", str(vfile))
        assert code == 2, command
        assert stdout == ""
        assert err == "error: vertex file is for d=2, n=1; flags say d=3, n=1\n"


def test_vertex_file_header_without_a_field_is_a_usage_error(tmp_path, capsys):
    vfile = tmp_path / "v.txt"
    vfile.write_text("# lambda-vertices n=1 count=8\n")
    code, stdout, err = run(capsys, "vertices", "-d", "2", "-n", "1", "--vertices", str(vfile))
    assert code == 2
    assert stdout == ""
    assert err == "error: lambda-vertices file header lacks d=\n"


@pytest.mark.parametrize("command,missing", [
    (["vertices"], "Clifford image of vertex 6 not in the vertex set"),
    (["simulate", "c.json", "--shots", "10"], "Clifford image of vertex 6 not in the vertex set"),
    (["decompose", "--state", "T"], "Clifford image of vertex 6 not in the vertex set"),
])
def test_incomplete_vertex_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command, missing):
    """A vertex file without one of the d=2 vertices still certifies line by
    line; the Clifford closure check at load names what it lacks, for every
    command, as a usage error, not a traceback."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "vertices", "-d", "2", "-n", "1", "--out", "v.txt")
    header, *rows = (tmp_path / "v.txt").read_text().splitlines()
    assert header.startswith("# lambda-vertices d=2 n=1 count=8 ")
    del rows[6]
    (tmp_path / "v7.txt").write_text("\n".join([header.replace("count=8", "count=7"), *rows]) + "\n")
    (tmp_path / "c.json").write_text(json.dumps({"d": 2, "n": 1, "state": {"preset": "zero"}, "ops": [
        {"clifford": {"gate": "F0"}}, {"measure": {"a": "Z:(1)|X:(0)"}}]}))
    code, stdout, err = run(capsys, *command, "-d", "2", "-n", "1", "--vertices", "v7.txt")
    assert code == 2
    assert stdout == ""
    assert err == f"error: vertex set is incomplete: {missing}\n"


def test_decompose_presets(tmp_path, capsys):
    vfile = tmp_path / "v.txt"
    run(capsys, "vertices", "-d", "2", "-n", "1", "--out", str(vfile))
    code, stdout, _ = run(capsys, "decompose", "-d", "2", "-n", "1",
                          "--state", "T", "--vertices", str(vfile), "--mode", "exact")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["feasible"] and doc["residual"] == "0 (exact)"

    # a vertex decomposes as a point mass
    code, stdout, _ = run(capsys, "decompose", "-d", "2", "-n", "1",
                          "--state", "zero", "--vertices", str(vfile), "--mode", "numeric")
    assert code == 0


# sha256 of the exact decompose output, recorded before decompositions went
# rational-first: the d=3 weights are found as Fractions now and must still
# print in the field form ("12; 1/2, 0, 0, 0").
DECOMPOSE_STDOUT_SHA256 = {
    ("2", "T"): "ef9a1899297e00b525bdd5710ddb3cd6caa18d205e90ac26ea23a05f4d76d2b2",
    ("3", "strange"): "2847dfef1b93d5c1ffeaf4e90b7db8860e3faca4dca231d92d82167d2e577dd2",
}


@pytest.mark.parametrize("d,state", sorted(DECOMPOSE_STDOUT_SHA256))
def test_decompose_output_is_pinned(capsys, d, state):
    code, stdout, _ = run(capsys, "decompose", "-d", d, "-n", "1", "--state", state)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == DECOMPOSE_STDOUT_SHA256[(d, state)]


# Circuits of the pinned `simulate` runs (2000 shots, seed 7, exact mode).
SIMULATE_CIRCUITS = {
    ("2", "T"): {"d": 2, "n": 1, "state": {"preset": "T"}, "ops": [
        {"clifford": {"gate": "F0"}}, {"measure": {"a": "Z:(1)|X:(0)"}},
        {"clifford": {"gate": "S0"}}, {"measure": {"a": "Z:(0)|X:(1)"}},
        {"measure": {"a": "Z:(1)|X:(1)"}}]},
    ("3", "strange"): {"d": 3, "n": 1, "state": {"preset": "strange"}, "ops": [
        {"clifford": {"gate": "F0"}}, {"measure": {"a": "Z:(1)|X:(0)"}},
        {"clifford": {"gate": "S0"}}, {"measure": {"a": "Z:(0)|X:(1)"}},
        {"clifford": {"gate": "M2_0"}}, {"measure": {"a": "Z:(1)|X:(2)"}}]},
}

# sha256 of (the CSV, stdout) of those runs on shot stream version 2
# (PCG64 draw matrix, row k drives shot k) and decomposition version 2
# (stabilizer post-states in closed form).
SIMULATE_SHA256 = {
    ("2", "T"): ("3ca3e28c9e1c1d2d1c2b14c93da62c93c7b74d37a3fc7c39e6fef7b10d2d7c30",
                 "59363ebbc352e90aaaef7de5d8170ef5ed3edd28219888b9b363e77b08d8bf7e"),
    ("3", "strange"): ("53d33adc46535f84985c42a6185609983f5aa47ffa4634452954b8c2279343ac",
                       "8a12809f1b4faaa125bb63ed5cbbdfc7a80ccbd1a0d2a25e47b8092f0c2cfa16"),
}


@pytest.mark.parametrize("d,state", sorted(SIMULATE_SHA256))
def test_simulate_output_is_pinned(tmp_path, monkeypatch, capsys, d, state):
    monkeypatch.chdir(tmp_path)     # stdout names the relative --out path
    (tmp_path / "c.json").write_text(json.dumps(SIMULATE_CIRCUITS[(d, state)]))
    code, stdout, _ = run(capsys, "simulate", "-d", d, "-n", "1", "c.json",
                          "--shots", "2000", "--seed", "7", "--out", "runs.csv")
    assert code == 0
    csv_sha = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
    stdout_sha = hashlib.sha256(stdout.encode()).hexdigest()
    assert (csv_sha, stdout_sha) == SIMULATE_SHA256[(d, state)]


def test_decompose_infeasible(tmp_path, capsys):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps({
        "matrix": [["1; 3/2", "1; 0"], ["1; 0", "1; -1/2"]]}))
    code, stdout, err = run(capsys, "decompose", "-d", "2", "-n", "1",
                            "--state", f"@{state}")
    assert code == 3
    assert "violated" in stdout
    assert err.startswith("error:")


def test_simulate_deterministic(tmp_path, capsys):
    circ = tmp_path / "c.json"
    circ.write_text(CIRCUIT_T)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, stdout1, _ = run(capsys, "simulate", "-d", "2", "-n", "1", str(circ),
                            "--shots", "400", "--seed", "7", "--out", str(out1))
    code2, stdout2, _ = run(capsys, "simulate", "-d", "2", "-n", "1", str(circ),
                            "--shots", "400", "--seed", "7", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc1, doc2 = json.loads(stdout1), json.loads(stdout2)
    doc1.pop("out"), doc2.pop("out")
    assert doc1 == doc2
    doc = doc1
    assert doc["p_value"] > 1e-3
    freq = next(c["frequency"] for c in doc["comparison"] if c["outcome"] == [0])
    oracle = next(c["oracle"] for c in doc["comparison"] if c["outcome"] == [0])
    assert abs(freq - oracle) < 0.1


def test_simulate_empty_circuit(tmp_path, capsys):
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps({"d": 2, "n": 1, "state": {"preset": "zero"}, "ops": []}))
    out = tmp_path / "empty.csv"
    code, stdout, _ = run(capsys, "simulate", "-d", "2", "-n", "1", str(circ),
                          "--shots", "10", "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert "no measurements" in doc["note"]
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11  # header + one row per shot, no outcome columns


@pytest.mark.parametrize("ops,measured", [([{"measure": {"a": "Z:(1)|X:(0)"}}], True), ([], False)])
def test_simulate_stats(tmp_path, capsys, ops, measured):
    """--stats adds the model's counters and this command's LP, certificate,
    oracle and sign counts; the rest of the summary is what it is without it."""
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps({"d": 2, "n": 1, "state": {"preset": "T"}, "ops": ops}))
    argv = ["simulate", "-d", "2", "-n", "1", str(circ), "--shots", "300", "--seed", "7"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "stats" not in json.loads(plain)
    code, stdout, _ = run(capsys, *argv, "--stats")
    assert code == 0
    doc = json.loads(stdout)
    stats = doc.pop("stats")
    assert doc == json.loads(plain)
    assert set(stats) == {"model", "exact_lp", "polytope", "oracle", "cyclotomic"}
    assert set(stats["model"]) == set(STAT_NAMES)
    assert set(stats["exact_lp"]) == {"rational", "split", "field", "pivots"}
    assert set(stats["polytope"]) == {"modp", "exact"}
    assert set(stats["oracle"]) == {"transitions", "reused", "branches"}
    assert set(stats["cyclotomic"]) == {"sign_rational", "sign_table", "sign_refined",
                                        "float_rational", "float_table", "float_refined",
                                        "tables"}
    assert stats["model"]["shots"] == 300
    assert stats["model"]["decompose_misses"] >= 1
    # the T input needs the LP; the post-states of the Z measurement are
    # the stabilizer states |0>, |1>, decomposed in closed form
    assert stats["model"]["decompose_lp"] == stats["exact_lp"]["field"] == 1
    assert stats["model"]["decompose_closed_form"] == (2 if measured else 0)
    assert stats["model"]["decompose_misses"] == 1 + stats["model"]["decompose_closed_form"]
    assert stats["oracle"]["branches"] == (2 if measured else 0)
    # the field LP of the T input decides irrational signs, all at 96 bits
    assert stats["cyclotomic"]["sign_table"] >= 1 and stats["cyclotomic"]["sign_refined"] == 0
    assert all(type(v) is int and v >= 0 for group in stats.values() for v in group.values())


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_simulate_without_shots_is_a_usage_error(tmp_path, capsys, shots):
    circ = tmp_path / "c.json"
    circ.write_text(CIRCUIT_T)
    code, stdout, err = run(capsys, "simulate", "-d", "2", "-n", "1", str(circ), "--shots", shots)
    assert code == 2
    assert stdout == ""
    assert err == f"error: --shots must be >= 1, got {shots}\n"


def test_verify_command(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "pauli", "-d", "2", "-n", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("d", ["2", "3"])
def test_verify_hvm_suite(capsys, d):
    """The hvm suite: exact at d=2, numeric at d=3; it runs the layered Born
    check and the sampled frequencies against the oracle."""
    code, stdout, _ = run(capsys, "verify", "--suite", "hvm", "-d", d, "-n", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["passed"] and all(c["passed"] for c in doc["checks"])
    layered = next(c for c in doc["checks"] if c["name"] == "layered_born_and_poststate")
    assert f"mode={'exact' if d == '2' else 'numeric'}" in layered["detail"]


def test_verify_hvm_suite_reports_an_outcome_outside_the_oracle_support(capsys, monkeypatch):
    """A sampler that records outcome d, which no measurement has, fails the
    suite's chi-square check in the JSON report instead of raising."""
    from lambda_hvm import hvm
    from lambda_hvm.cli import EXIT_VERIFY

    fill = hvm._PointTable.fill
    monkeypatch.setattr(hvm._PointTable, "fill", lambda table, alpha, sums, nxt, out:
                        fill(table, alpha, sums, nxt, [o + 2 for o in out]))
    code, stdout, err = run(capsys, "verify", "--suite", "hvm", "-d", "2", "-n", "1")
    assert code == EXIT_VERIFY
    assert err == "error: verification suite reported failures; see the JSON report\n"
    doc = json.loads(stdout)
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert not doc["passed"] and [c["name"] for c in failed] == ["sampling_chi_square"]
    assert "outside the oracle support" in failed[0]["detail"]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "-d", "2", "-n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["vertices", "--seed", "1"],
    ["vertices", "--mode", "numeric"],
    ["decompose", "--state", "zero", "--seed", "1"],
    ["verify", "--suite", "pauli", "--mode", "numeric"],
    ["verify", "--suite", "pauli", "--vertices", "v.txt"],
], ids=["vertices-seed", "vertices-mode", "decompose-seed", "verify-mode", "verify-vertices"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-d", "2", "-n", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
