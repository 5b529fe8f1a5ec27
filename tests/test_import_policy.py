"""What each entry point loads, read off ``sys.modules`` in fresh interpreters.

``import toricip`` loads no module of the package: its names resolve on
first access.  The CLI loads ``fileio`` and what it needs up front, and each
command imports only the modules on its own code path, so a child process
that runs one command does not compile the rest of the library.  Every
module can be imported first, so no import cycle hides behind the order in
which the package used to load its modules.  No child loads ``dataclasses``
or ``inspect`` beyond what a bare interpreter loads: the value types are
:class:`toricip.errors.Record` subclasses, and no module imports ``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricip

SRC = Path(toricip.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
CLI_BASE = {"cli", "errors", "fileio", "core", "linalg", "fibers", "linprog"}
PIPELINE = {"groebner", "stdpairs", "relax", "oracle", "hilbert"}

# print the package's loaded modules, by short name, after the code has run
REPORT = ("import json, sys\n"
          "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
          " if m.startswith('toricip.'))))\n")
# standard modules whose import costs a CLI child several ms
HEAVY = ("dataclasses", "inspect")
HEAVY_REPORT = f"import json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"


def _child(code, report=REPORT):
    """Run ``code`` then ``report`` in a fresh interpreter; its JSON answer."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr[-500:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_package_loads_no_module():
    assert _child("import toricip") == []


def test_import_cli_loads_only_fileio_and_its_needs():
    assert set(_child("import toricip.cli")) == CLI_BASE


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_first(module):
    assert module in _child(f"import toricip.{module}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("import_policy")
    texts = {"ex1.mat": "2 4\n1 1 1 1\n0 1 2 3\n", "ex1.cost": "1 0 0 1\n",
             "knap.mat": "1 3\n2 5 8\n", "knap.cost": "10000 100 1\n",
             "nn.mat": "2 4\n1 1 1 1\n0 1 3 4\n", "gens.mat": "2 2\n1 1\n0 4\n",
             "sq.mat": "4 2\n1 0\n-1 0\n0 1\n0 -1\n", "sq.off": "1 0 1 0\n"}
    for name, text in texts.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in texts}


# command, its arguments (file names are keys of ``files``), modules it must not load
KNAP = ["--matrix", "knap.mat", "--cost", "knap.cost"]
COMMANDS = [
    ("triangulate", ["--matrix", "ex1.mat", "--cost", "ex1.cost"], PIPELINE),
    ("groebner", ["--matrix", "knap.mat", "--cost", "knap.cost"], PIPELINE - {"groebner"}),
    ("solve", ["--matrix", "knap.mat", "--cost", "knap.cost", "--rhs", "27"],
     PIPELINE - {"groebner"}),
    ("sharp-family", ["--m", "2"], {"groebner", "stdpairs", "oracle"}),
    ("hilbert", ["--generators", "gens.mat"], {"groebner", "stdpairs", "oracle"}),
    ("normality", ["--matrix", "nn.mat"], {"groebner", "stdpairs", "oracle"}),
    ("relax", KNAP + ["--rhs", "27", "--face", "3"], {"groebner", "stdpairs"}),
    # the oracle's lattice points and fibers need no algebraic code
    ("oracle points", ["--rows", "sq.mat", "--offsets", "sq.off"],
     {"groebner", "stdpairs", "triangulation"}),
    ("oracle fiber", KNAP + ["--rhs", "27"], {"groebner", "stdpairs", "triangulation"}),
]


def _command_code(files, command, args):
    argv = command.split() + [files.get(a, a) for a in args]
    return ("import contextlib, io\n"
            "from toricip import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


@pytest.mark.parametrize("command, args, forbidden", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_loads_only_its_code_path(files, command, args, forbidden):
    loaded = set(_child(_command_code(files, command, args)))
    assert CLI_BASE <= loaded
    assert not loaded & forbidden


@pytest.fixture(scope="module")
def bare_heavy():
    """The heavy modules a bare interpreter loads: a site hook may load some."""
    return set(_child("pass", HEAVY_REPORT))


def test_import_cli_loads_no_heavy_module(bare_heavy):
    assert set(_child("import toricip.cli", HEAVY_REPORT)) <= bare_heavy


@pytest.mark.parametrize("command, args, forbidden", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_loads_no_heavy_module(files, bare_heavy, command, args, forbidden):
    assert set(_child(_command_code(files, command, args), HEAVY_REPORT)) <= bare_heavy


def test_no_module_imports_dataclasses():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.stem, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.stem, node.module.split(".")[0]))
    assert ("core", "functools") in imported  # the scan sees the package's imports
    assert {(m, name) for m, name in imported if name == "dataclasses"} == set()


def test_package_names_resolve_to_their_home_modules():
    code = ("import sys, toricip\n"
            "assert set(toricip.__all__) <= set(dir(toricip))  # before any name resolves\n"
            "wrong = [n for n in toricip.__all__\n"
            "         if (x := getattr(toricip, n)) is not getattr(sys.modules[x.__module__], n)]\n"
            "assert wrong == [], wrong\n"
            "ns = {}\n"
            "exec('from toricip import *', ns)\n"
            "assert {n for n in ns if n != '__builtins__'} == set(toricip.__all__)\n")
    assert set(_child(code)) >= {"hilbert", "oracle", "relax", "stdpairs"}


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toricip.no_such_name  # noqa: B018


def test_importing_the_test_modules_builds_no_matrix():
    # fixtures and cases build on first use, so a library change that breaks
    # every IntMatrix fails the tests that use one, not a module's collection
    tests = Path(__file__).parent
    names = sorted(p.stem for p in tests.glob("test_*.py"))
    code = (f"import sys\nsys.path.insert(0, {str(tests)!r})\n"
            "from toricip import core\n"
            "built, real = [], core.IntMatrix.__init__\n"
            "core.IntMatrix.__init__ = lambda self, *a: built.append(a) or real(self, *a)\n"
            f"for name in {names!r}:\n    __import__(name)\n"
            "print(len(built))\n")
    assert _child(code, report="") == 0
