"""The references' independence from the code they check, read off the source with ``ast``.

``tests/reference_groebner.py`` carries its own copy of the library's older
completion.  From ``groebner`` it imports only the containers its answer is
built in, ``Binomial`` and ``GroebnerBasis``, and ``positive_grading``, so a
change to the library's completion cannot change the reference.
``tests/reference_normality.py`` imports only ``hilbert_basis`` from
``hilbert``, so its normality tests are its own.
``tests/reference_hilbert.py`` and the parallelepiped sweep it reads
(``tests/reference_enum.py``) import nothing from ``hilbert``, so its Hilbert
bases are its own.  Every import counts, also one inside a function.
"""

import ast

from test_oracle_policy import TESTS, _imports, _imports_of

ALLOWED = {"Binomial", "GroebnerBasis", "positive_grading"}
NORMALITY_ALLOWED = {"hilbert_basis"}


def _violations(imports, module="groebner", allowed=ALLOWED):
    return [(m, n) for m, n in imports if m == module and n not in allowed]


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


def test_normality_reference_imports_only_the_hilbert_basis():
    imports = _imports_of(TESTS / "reference_normality.py")
    assert ("hilbert", "hilbert_basis") in imports
    assert ("fibers", "factor") in imports and ("linprog", "nonneg_feasible") in imports
    assert _violations(imports, "hilbert", NORMALITY_ALLOWED) == []


def test_the_scan_sees_every_import_from_hilbert():
    src = ("from toricip.hilbert import hilbert_basis, _first_missing\n"
           "def f():\n"
           "    from toricip.hilbert import normality_report\n"
           "    from toricip import hilbert\n")
    assert _violations(_imports(ast.parse(src)), "hilbert", NORMALITY_ALLOWED) == [
        ("hilbert", "_first_missing"),
        ("hilbert", "normality_report"),
        ("hilbert", None),
    ]


def test_hilbert_reference_imports_nothing_from_hilbert():
    imports = _imports_of(TESTS / "reference_hilbert.py")
    assert ("linprog", "nonneg_feasible") in imports  # the scan sees the reference's imports
    assert _violations(imports, "hilbert", set()) == []
    assert _violations(_imports_of(TESTS / "reference_enum.py"), "hilbert", set()) == []
