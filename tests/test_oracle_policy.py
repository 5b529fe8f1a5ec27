"""The oracle's independence from the code it checks, read off the source with ``ast``.

The oracle is ground truth for the algebraic route, so it must not compute
with it: ``oracle`` imports nothing from ``groebner``, and from ``stdpairs``
only the two containers its answer is built in, ``Decomposition`` and
``StandardPair``.  The test-only reference of its root search,
``tests/reference_oracle.py``, imports nothing from ``oracle``.  Every import
counts, also one inside a function.
"""

import ast
from pathlib import Path

import toricip

SRC = Path(toricip.__file__).parent
TESTS = Path(__file__).parent
CONTAINERS = {"Decomposition", "StandardPair"}


def _imports(tree):
    """(module, name) for each package name an import binds; name None for a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name.split(".", 1)[1], None) for alias in node.names
                    if alias.name.startswith("toricip.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module != "toricip" and not module.startswith("toricip."):
                continue
            module = module.removeprefix("toricip").lstrip(".")
            if module:
                out += [(module, alias.name) for alias in node.names]
            else:  # from . import stdpairs
                out += [(alias.name, None) for alias in node.names]
    return out


def _imports_of(path):
    return _imports(ast.parse(path.read_text(), str(path)))


def _violations(oracle_imports, reference_imports):
    found = [("oracle", m, n) for m, n in oracle_imports
             if m == "groebner" or (m == "stdpairs" and n not in CONTAINERS)]
    return found + [("reference_oracle", m, n) for m, n in reference_imports if m == "oracle"]


def test_oracle_does_not_import_the_code_it_checks():
    oracle_imports = _imports_of(SRC / "oracle.py")
    reference_imports = _imports_of(TESTS / "reference_oracle.py")
    assert ("stdpairs", "Decomposition") in oracle_imports  # the scan sees local imports
    assert ("fibers", "lattice_points_boxed") in reference_imports
    assert _violations(oracle_imports, reference_imports) == []


def test_the_scan_sees_every_form_of_import():
    oracle_src = ("from .groebner import CostOrder\n"
                  "def f():\n"
                  "    from .stdpairs import Decomposition, initial_ideal\n"
                  "    from . import stdpairs\n"
                  "    import toricip.groebner\n")
    reference_src = ("from toricip.oracle import _undominated\n"
                     "from toricip import oracle\n"
                     "import toricip.oracle as o\n"
                     "from toricip.fibers import Elimination\n"
                     "from reference_linalg import dot\n")
    assert _violations(_imports(ast.parse(oracle_src)), _imports(ast.parse(reference_src))) == [
        ("oracle", "groebner", "CostOrder"),
        ("oracle", "stdpairs", "initial_ideal"),
        ("oracle", "stdpairs", None),
        ("oracle", "groebner", None),
        ("reference_oracle", "oracle", "_undominated"),
        ("reference_oracle", "oracle", None),
        ("reference_oracle", "oracle", None),
    ]
