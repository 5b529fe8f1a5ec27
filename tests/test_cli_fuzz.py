"""The CLI contract on malformed input: one JSON line, exit code 0, 1 or 2.

Hypothesis draws matrix, vector, face and triangulation files (vectors also
inline), well formed or broken in one of several ways (a wrong entry count,
a bad header, a token that is not an integer, an empty file), with entries
in -3..5, and runs every subcommand on them in-process.  Whatever the input, ``cli.main`` must return
0, 1 or 2 without raising and print exactly one line, which is one JSON
document; an error document carries ``error.kind``.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricip.cli import main

ENTRY = st.integers(-3, 5)
BAD_TOKENS = ("x", "1.5", "--", "1e3", "+-2", "")


@st.composite
def token_lists(draw, length):
    """``length`` integer tokens, or sometimes one more or one fewer, or one bad token."""
    size = max(length + draw(st.sampled_from((0, 0, 0, 0, -1, 1))), 0)
    tokens = [str(v) for v in draw(st.lists(ENTRY, min_size=size, max_size=size))]
    if draw(st.integers(0, 5)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    return " ".join(tokens)


@st.composite
def matrix_files(draw, d, n):
    """A d x n matrix file; the first row is positive, or broken in one of several ways."""
    first = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)) if d else []
    rest = draw(st.lists(ENTRY, min_size=(d - 1) * n, max_size=(d - 1) * n)) if d else []
    entries = [str(v) for v in first + rest]
    damage = draw(st.sampled_from(("none",) * 6 + ("short", "long", "header", "token", "empty",
                                                   "any")))
    header = [str(d), str(n)]
    if damage == "short" and entries:
        entries.pop()
    elif damage == "long":
        entries.append(str(draw(ENTRY)))
    elif damage == "header":
        header = [str(draw(ENTRY)) for _ in range(draw(st.integers(0, 3)))]
    elif damage == "token":
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(BAD_TOKENS)))
    elif damage == "empty":
        return ""
    elif damage == "any":  # no positive row: the fibers may be infinite
        entries = [str(draw(ENTRY)) for _ in entries]
    return " ".join(header) + "\n" + "\n".join(
        " ".join(entries[i * n:(i + 1) * n]) for i in range(-(-len(entries) // max(n, 1)))) + "\n"


@st.composite
def face_specs(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(BAD_TOKENS))
    return ",".join(str(v) for v in draw(st.lists(st.integers(-1, 6), max_size=4)))


@st.composite
def triangulation_files(draw):
    faces = draw(st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=4))
    return draw(st.sampled_from((json.dumps(faces), json.dumps(faces), "[[1, 2]", "{}", "[1, 2]",
                                 '[["1"]]', "")))


COMMANDS = ("triangulate", "groebner", "solve", "relax", "solve-sp", "stdpairs",
            "stdpairs-oracle", "assoc", "gomory", "hilbert", "normality", "normality-tri",
            "gomory-cost", "sharp-family", "oracle-points", "oracle-fiber", "oracle-stdpairs")


def argv_for(command, f, m):
    """The argument list of one subcommand, each option written as --name=value."""
    model = ("matrix", "cost")
    command, *flags = {
        "triangulate": ("triangulate", *model),
        "groebner": ("groebner", *model),
        "solve": ("solve", *model, "rhs"),
        "relax": ("relax", *model, "rhs", "face"),
        "solve-sp": ("solve-sp", *model, "rhs"),
        "stdpairs": ("stdpairs", *model),
        "stdpairs-oracle": ("stdpairs", *model, "--oracle"),
        "assoc": ("assoc", *model),
        "gomory": ("gomory", *model),
        "hilbert": ("hilbert", "generators"),
        "normality": ("normality", "matrix", "--super"),
        "normality-tri": ("normality", "matrix", "triangulation"),
        "gomory-cost": ("gomory-cost", "matrix", "triangulation"),
        "sharp-family": ("sharp-family", "m"),
        "oracle-points": ("oracle points", "rows", "offsets"),
        "oracle-fiber": ("oracle fiber", *model, "rhs"),
        "oracle-stdpairs": ("oracle stdpairs", *model),
    }[command]
    values = {**f, "generators": f["matrix"], "rows": f["matrix"], "offsets": f["rhs"],
              "m": str(m)}
    return command.split() + [flag if flag.startswith("--") else f"--{flag}={values[flag]}"
                              for flag in flags]


@st.composite
def cases(draw):
    d = draw(st.sampled_from((1, 1, 2, 2, 3, 0)))
    n = d + draw(st.integers(0, 3)) if draw(st.integers(0, 5)) else draw(st.integers(0, 5))
    return (draw(st.sampled_from(COMMANDS)), draw(matrix_files(d, n)), draw(token_lists(n)),
            draw(token_lists(d)), draw(triangulation_files()), draw(face_specs()),
            draw(st.one_of(st.integers(-3, 3), st.sampled_from((11, 64)))), draw(st.booleans()))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_subcommand_prints_one_json_line(case):
    command, matrix, cost, rhs, tri, face, m, inline = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"face": face}
        for name, text in (("matrix", matrix), ("cost", cost), ("rhs", rhs),
                           ("triangulation", tri)):
            if inline and name in ("cost", "rhs"):  # a vector may be given in place
                files[name] = text
                continue
            files[name] = os.path.join(tmp, name)
            with open(files[name], "w") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main(argv_for(command, files, m))
        out = buf.getvalue()
    assert code in (0, 1, 2)
    lines = out.splitlines()
    assert len(lines) == 1 and out.endswith("\n")
    doc = json.loads(lines[0])
    assert isinstance(doc, dict)
    if code:
        assert set(doc) == {"error"} and doc["error"]["kind"]
        assert (doc["error"]["kind"] == "parse") == (code == 2)


def test_an_option_value_of_double_dash_is_a_parse_error():
    # argparse hands "--face=--" over as [] instead of a string
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(["relax", "--matrix=m", "--cost=1 0", "--rhs=1", "--face=--"])
    assert code == 2
    assert json.loads(buf.getvalue())["error"]["kind"] == "parse"
