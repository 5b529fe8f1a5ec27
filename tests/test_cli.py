import json
import os
import pathlib
import subprocess
import sys

import pytest

import toricip
from toricip.cli import main


@pytest.fixture
def fixtures(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    write("knap.mat", "1 3\n2 5 8\n")
    write("knap.cost", "10000 100 1\n")
    write("ex1.mat", "2 4\n1 1 1 1\n0 1 2 3\n")
    write("ex1.cost", "1 0 0 1\n")
    write("ex2.cost", "0 1 0 1\n")
    write("gf.mat", "3 6\n1 0 1 1 1 1\n0 1 1 1 2 2\n0 0 1 2 3 4\n")
    write("gf.tri", "[[1, 2, 6]]\n")
    write("nn.mat", "2 4\n1 1 1 1\n0 1 3 4\n")
    write("sq.mat", "4 2\n1 0\n-1 0\n0 1\n0 -1\n")
    write("sq.off", "1 0 1 0\n")
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve(capsys, fixtures):
    code, out = run(capsys, [
        "solve", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "27"])
    assert code == 0
    assert json.loads(out) == {"optimum": [1, 5, 0], "value": 10500}


def test_triangulate(capsys, fixtures):
    code, out = run(capsys, [
        "triangulate", "--matrix", fixtures["ex1.mat"], "--cost", fixtures["ex1.cost"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["maximal_faces"] == [[1, 2], [2, 3], [3, 4]]
    assert doc["triangulation"] and doc["tdi"]


def test_stdpairs_and_oracle_agree(capsys, fixtures):
    code, out = run(capsys, [
        "stdpairs", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["arithmetic_degree"] == 20
    assert doc["multiplicities"] == {"": 12, "3": 8}
    assert doc["associated_sets"] == [[], [3]]
    assert doc["gomory_family"] is False

    code, out2 = run(capsys, [
        "oracle", "stdpairs", "--matrix", fixtures["knap.mat"],
        "--cost", fixtures["knap.cost"]])
    assert code == 0
    doc2 = json.loads(out2)
    assert doc2.pop("oracle") is True
    assert doc2["pairs"] == doc["pairs"]


def test_relax_and_solve_sp(capsys, fixtures):
    code, out = run(capsys, [
        "relax", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "2", "--face", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == [0, 2, -1] and doc["solves_ip"] is False

    code, out = run(capsys, [
        "solve-sp", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "16"])
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == [0, 0, 2] and doc["pair"]["face"] == [3]


def test_groebner_and_assoc(capsys, fixtures):
    code, out = run(capsys, [
        "groebner", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["generic"] and len(doc["elements"]) == 6

    code, out = run(capsys, [
        "assoc", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]])
    doc = json.loads(out)
    assert doc["max_chain_length"] == 1 and doc["length_bound"] == 1


def test_normality_and_gomory_cost(capsys, fixtures):
    code, out = run(capsys, ["normality", "--matrix", fixtures["nn.mat"]])
    assert code == 0
    assert json.loads(out) == {"normal": False, "witness": [1, 2]}

    code, out = run(capsys, [
        "normality", "--matrix", fixtures["gf.mat"],
        "--triangulation", fixtures["gf.tri"], "--super"])
    doc = json.loads(out)
    assert doc["normal"] and doc["delta_normal"] and doc["supernormal"] is False

    code, out = run(capsys, [
        "gomory-cost", "--matrix", fixtures["gf.mat"],
        "--triangulation", fixtures["gf.tri"]])
    assert code == 0
    doc = json.loads(out)
    roots = sorted(tuple(p["root"]) for p in doc["pairs"])
    assert roots == [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                     (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0)]


def test_hilbert_and_sharp_and_points(capsys, fixtures, tmp_path):
    gen = tmp_path / "g.mat"
    gen.write_text("2 2\n1 1\n0 4\n")
    code, out = run(capsys, ["hilbert", "--generators", str(gen)])
    assert code == 0
    assert json.loads(out)["basis"] == [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]]

    code, out = run(capsys, ["sharp-family", "--m", "3"])
    doc = json.loads(out)
    assert doc["d"] == 7 and doc["n"] == 10
    assert doc["cost"] == [11, 0, 0, 0, 0, 0, 0, 10, 10, 10]

    code, out = run(capsys, [
        "oracle", "points", "--rows", fixtures["sq.mat"], "--offsets", fixtures["sq.off"]])
    assert json.loads(out)["points"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    code, out = run(capsys, [
        "oracle", "fiber", "--matrix", fixtures["knap.mat"],
        "--cost", fixtures["knap.cost"], "--rhs", "10"])
    doc = json.loads(out)
    assert doc["optimum"] == [0, 2, 0] and len(doc["fiber"]) == 3


@pytest.mark.parametrize("text, code, expected", [
    ("1 2\n1 -1\n", 1, {"error": {"kind": "not_pointed", "message": "cone contains a line"}}),
    ("2 1\n1\n1\n", 0, {"basis": [[1, 1]]}),  # rank 1 in the plane
    ("0 0\n", 0, {"basis": []}),  # the zero cone
])
def test_hilbert_reads_generators_that_are_not_an_int_matrix(capsys, tmp_path, text, code, expected):
    # the generators need not have full row rank; a line is reported as such
    gen = tmp_path / "g.mat"
    gen.write_text(text)
    got, out = run(capsys, ["hilbert", "--generators", str(gen)])
    assert (got, json.loads(out)) == (code, expected)


def test_oracle_points_with_no_rows_in_the_plane_is_unbounded(capsys, tmp_path):
    # no rows in Z^2: every point is feasible
    plane = tmp_path / "plane.mat"
    plane.write_text("0 2\n")
    code, out = run(capsys, ["oracle", "points", "--rows", str(plane), "--offsets", ""])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "unbounded"


def test_oracle_points_with_no_rows_in_dimension_zero(capsys, tmp_path):
    # no rows in Z^0: the one empty point
    point = tmp_path / "point.mat"
    point.write_text("0 0\n")
    code, out = run(capsys, ["oracle", "points", "--rows", str(point), "--offsets", ""])
    assert code == 0
    assert json.loads(out)["points"] == [[]]


def test_exit_codes(capsys, fixtures, tmp_path):
    code, out = run(capsys, [
        "solve", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "infeasible"

    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 x\n")
    code, out = run(capsys, [
        "solve", "--matrix", str(bad), "--cost", fixtures["knap.cost"], "--rhs", "1"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize("argv", [
    ["triangulate", "--matrix", "knap.mat", "--cost", "1 2"],
    ["groebner", "--matrix", "knap.mat", "--cost", "1 2 3 4"],
    # b = 27 alone is feasible: the extra entry must not be dropped silently
    ["solve", "--matrix", "knap.mat", "--cost", "knap.cost", "--rhs", "27 5"],
    ["solve", "--matrix", "ex1.mat", "--cost", "ex1.cost", "--rhs", "3"],
    ["oracle", "fiber", "--matrix", "knap.mat", "--cost", "knap.cost", "--rhs", ""],
    ["oracle", "points", "--rows", "sq.mat", "--offsets", "1 0 1"],
    ["sharp-family", "--m", "1"],
    ["sharp-family", "--m", "-3"],
    # the family has 2^m - 1 rows: m = 64 would loop over 2^64 sign vectors
    ["sharp-family", "--m", "11"],
    ["sharp-family", "--m", "64"],
    # a face flag that repeats an index, or names a column past n = 4
    ["relax", "--matrix", "ex1.mat", "--cost", "ex1.cost", "--rhs", "3 4", "--face", "1,1"],
    ["relax", "--matrix", "ex1.mat", "--cost", "ex1.cost", "--rhs", "3 4", "--face", "1,5"],
])
def test_malformed_vectors_and_family_size_are_parse_errors(capsys, fixtures, argv):
    code, out = run(capsys, [fixtures.get(a, a) for a in argv])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_byte_identical_output(capsys, fixtures):
    _, out1 = run(capsys, [
        "stdpairs", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]])
    _, out2 = run(capsys, [
        "stdpairs", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]])
    assert out1 == out2


def test_tsv_mode(capsys, fixtures):
    code, out = run(capsys, [
        "solve", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "27", "--tsv"])
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["value"] == "10500"


def test_tsv_mode_writes_booleans_and_null_as_json(capsys, fixtures):
    code, out = run(capsys, ["normality", "--matrix", fixtures["nn.mat"], "--tsv"])
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["normal"] == "false"
    code, out = run(capsys, ["normality", "--matrix", fixtures["ex1.mat"], "--tsv"])
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert (lines["normal"], lines["witness"]) == ("true", "null")


@pytest.mark.parametrize("command", ["normality", "gomory-cost"])
@pytest.mark.parametrize("faces", [
    "[[0, 1]]", "[[1, 5]]", "[[1, 1, 2]]", "[[1.7, 2]]", "[[true, 2]]"])
def test_triangulation_indices_out_of_range_are_parse_errors(capsys, tmp_path, command, faces):
    # index 0 must not read the last column; 5 is past the 3 columns; a
    # repeated index, a float or a bool must not be kept, truncated or cast
    mat = tmp_path / "a.mat"
    mat.write_text("2 3\n1 1 1\n0 1 3\n")
    tri = tmp_path / "a.tri"
    tri.write_text(faces)
    code, out = run(capsys, [command, "--matrix", str(mat), "--triangulation", str(tri)])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize("faces", ["[[1, 2, 3, 4]]", "[[1, 2], [2, 3, 4]]"])
def test_gomory_cost_refuses_a_cell_larger_than_d(capsys, fixtures, tmp_path, faces):
    # EX1 has d = 2: a cell of 3 or 4 columns is not a simplex of a triangulation
    tri = tmp_path / "big.tri"
    tri.write_text(faces)
    code, out = run(capsys, ["gomory-cost", "--matrix", fixtures["ex1.mat"],
                             "--triangulation", str(tri)])
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["kind"] == "degenerate"


@pytest.mark.parametrize("argv", [
    ["solve", "--matrix", "knap.mat", "--cost", "knap.cost"],
    ["sharp-family", "--m", "abc"],
    ["solve", "--matrix", "knap.mat", "--cost", "knap.cost", "--rhs", "27", "--bogus"],
    ["frobnicate", "--matrix", "knap.mat"],
])
def test_usage_errors_print_one_parse_document(capsys, fixtures, argv):
    code = main([fixtures.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["kind"] == "parse"
    assert captured.err == ""


@pytest.mark.parametrize("flag", [["--json"], ["--seed", "3"]])
def test_removed_noop_flags_are_parse_errors(capsys, fixtures, flag):
    code, out = run(capsys, [
        "solve", "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"],
        "--rhs", "27", *flag])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize("command, expected", [
    (["stdpairs"], {"pairs": [{"root": [0] * 17, "face": [1]}]}),
    (["assoc"], {"max_chain_length": 0}),
    (["gomory"], {"gomory_family": True}),
    (["solve-sp", "--rhs", "3"], {"optimum": [3] + [0] * 16}),
])
def test_standard_pairs_run_past_sixteen_columns(capsys, tmp_path, command, expected):
    # 1 x 17 all ones, cost 1..17: the cheapest column is the one cell
    mat = tmp_path / "wide.mat"
    mat.write_text("1 17\n" + " ".join(["1"] * 17) + "\n")
    cost = " ".join(str(j) for j in range(1, 18))
    code, out = run(capsys, [command[0], "--matrix", str(mat), "--cost", cost, *command[1:]])
    assert code == 0
    payload = json.loads(out)
    assert {key: payload[key] for key in expected} == expected


@pytest.mark.parametrize("command", [["stdpairs", "--oracle"], ["oracle", "stdpairs"]])
def test_oracle_refuses_a_refined_decomposition(capsys, fixtures, command):
    # EX1 at (0 1 0 1) ties, so stdpairs refines the subdivision; the oracle
    # knows only the unrefined cost and would approve other pairs
    code, out = run(capsys, ["stdpairs", "--matrix", fixtures["ex1.mat"],
                             "--cost", fixtures["ex2.cost"]])
    assert code == 0 and json.loads(out)["refined"] is True
    for cost in (fixtures["ex2.cost"], "0 0 0 0"):
        code, out = run(capsys, [*command, "--matrix", fixtures["ex1.mat"], "--cost", cost])
        assert code == 1 and out.count("\n") == 1
        assert json.loads(out)["error"]["kind"] == "degenerate"


def test_closed_stdout_exits_quietly(fixtures):
    # the child writes into a pipe whose read end is already closed
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(toricip.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "toricip.cli", "stdpairs",
             "--matrix", fixtures["knap.mat"], "--cost", fixtures["knap.cost"]],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
