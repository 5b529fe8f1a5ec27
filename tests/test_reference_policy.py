"""The Groebner reference's independence from the completion it checks, read off the source with ``ast``.

``tests/reference_groebner.py`` carries its own copy of the library's older
completion.  From ``groebner`` it imports only the containers its answer is
built in, ``Binomial`` and ``GroebnerBasis``, and ``positive_grading``, so a
change to the library's completion cannot change the reference.  Every
import counts, also one inside a function.
"""

import ast

from test_oracle_policy import TESTS, _imports, _imports_of

ALLOWED = {"Binomial", "GroebnerBasis", "positive_grading"}


def _violations(imports):
    return [(m, n) for m, n in imports if m == "groebner" and n not in ALLOWED]


def test_groebner_reference_does_not_import_the_completion():
    imports = _imports_of(TESTS / "reference_groebner.py")
    assert ("groebner", "Binomial") in imports  # the scan sees the reference's imports
    assert _violations(imports) == []


def test_the_scan_sees_every_form_of_import():
    src = ("from toricip.groebner import Binomial, _completion\n"
           "def f():\n"
           "    from toricip.groebner import _RevlexSat, positive_grading\n"
           "    import toricip.groebner\n"
           "    from toricip import groebner\n")
    assert _violations(_imports(ast.parse(src))) == [
        ("groebner", "_completion"),
        ("groebner", "_RevlexSat"),
        ("groebner", None),
        ("groebner", None),
    ]
