"""Golden CLI corpus: every subcommand's stdout, byte for byte.

The fixtures in ``golden/fixtures`` are the benchmark's CLI fixtures.  Each
case runs in JSON and in ``--tsv`` form, and its exit code and stdout must
equal the recorded ones in ``golden/corpus.json``.  A refactor that changes
any byte of the output fails here.

``PYTHONPATH=src python tests/test_golden.py`` re-records the corpus from
the ``toricip`` on the path; do that only for an intended output change.
"""

import contextlib
import io
import json
import pathlib

import pytest

from toricip.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "fixtures"
CORPUS = GOLDEN / "corpus.json"

KNAP = ["--matrix", "knap.mat", "--cost", "knap.cost"]
LC = ["--matrix", "lc.mat", "--cost", "lc.cost"]
GF = ["--matrix", "gf.mat", "--cost", "gf.cost"]
EX2 = ["--matrix", "ex1.mat", "--cost", "ex2.cost"]
SHARP3 = ["--matrix", "sharp3.mat", "--cost", "sharp3.cost"]

CASES = {
    "triangulate-ex1": ["triangulate", "--matrix", "ex1.mat", "--cost", "ex1.cost"],
    "triangulate-lc": ["triangulate", *LC],
    "groebner-knap": ["groebner", *KNAP],
    "groebner-lc": ["groebner", *LC],
    "solve-knap": ["solve", *KNAP, "--rhs", "27"],
    "solve-lc": ["solve", *LC, "--rhs", "13 19 13"],
    "solve-infeasible": ["solve", *KNAP, "--rhs", "1"],
    "relax-knap": ["relax", *KNAP, "--rhs", "58", "--face", "3"],
    "relax-knap-trivial": ["relax", *KNAP, "--rhs", "14"],
    "relax-lc": ["relax", *LC, "--rhs", "14 16 15", "--face", "2,5,6"],
    "relax-gf": ["relax", *GF, "--rhs", "8 10 14", "--face", "2,5,6"],
    # EX2 ties: two points share the least cost, and the lex-first one wins
    "relax-ex2": ["relax", *EX2, "--rhs", "6 8", "--face", "3,4"],
    "relax-ex2-tie": ["relax", *EX2, "--rhs", "5 9", "--face", "1,3"],
    # sharp m=3 is a subdivision with non-simplex cells; face 1 is bounded
    "relax-sharp3": ["relax", *SHARP3, "--rhs", "6 9 8 9 6 7 6", "--face", "1"],
    "solve-sp-knap": ["solve-sp", *KNAP, "--rhs", "58"],
    "stdpairs-knap": ["stdpairs", *KNAP],
    "stdpairs-lc": ["stdpairs", *LC],
    "stdpairs-knap-oracle": ["stdpairs", *KNAP, "--oracle"],
    "assoc-lc": ["assoc", *LC],
    "gomory-gf": ["gomory", *GF],
    "hilbert-gens": ["hilbert", "--generators", "gens.mat"],
    "normality-nn": ["normality", "--matrix", "nn.mat"],
    "normality-gf": ["normality", "--matrix", "gf.mat", "--triangulation", "gf.tri"],
    "normality-gf-super": ["normality", "--matrix", "gf.mat", "--triangulation", "gf.tri",
                           "--super"],
    "gomory-cost-gf": ["gomory-cost", "--matrix", "gf.mat", "--triangulation", "gf.tri"],
    "sharp-family-3": ["sharp-family", "--m", "3"],
    "oracle-points-sq": ["oracle", "points", "--rows", "sq.mat", "--offsets", "sq.off"],
    "oracle-fiber-knap": ["oracle", "fiber", *KNAP, "--rhs", "58"],
    "oracle-stdpairs-knap": ["oracle", "stdpairs", *KNAP],
    # degenerate costs: the subdivision is refined by the lex tie-break
    "stdpairs-ex2": ["stdpairs", *EX2],
    "solve-sp-ex2": ["solve-sp", *EX2, "--rhs", "3,4"],
    "stdpairs-sharp3": ["stdpairs", *SHARP3],
    "assoc-sharp3": ["assoc", *SHARP3],
}

RUNS = {f"{name}.{fmt}": argv + extra
        for name, argv in CASES.items()
        for fmt, extra in (("json", []), ("tsv", ["--tsv"]))}


def run(argv):
    """(exit code, stdout) of one in-process CLI run on the golden fixtures."""
    argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_run(corpus):
    assert sorted(corpus) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(corpus, name):
    code, out = run(RUNS[name])
    assert (code, out) == (corpus[name]["code"], corpus[name]["stdout"])


def record():
    doc = {}
    for name, argv in sorted(RUNS.items()):
        code, out = run(argv)
        doc[name] = {"argv": argv, "code": code, "stdout": out}
    CORPUS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
