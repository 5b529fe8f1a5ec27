"""No call in the library star-unpacks a generator expression, read off its source with ``ast``.

``f(*(x for x in xs))`` builds a tuple from the generator by growing it in
steps, and on CPython 3.11 each call of that form leaves one more tuple on the
per-size free list, up to 2,000 per size: 20,000 calls of
``math.lcm(*(v for v in vals))`` keep about 2,000 more blocks allocated, where
``math.lcm(*[v for v in vals])`` keeps 4.  ``IntMatrix`` validation runs such
calls through ``linalg.clear_denominators`` and ``linprog._cost_row``, so the
peak memory of a long run grew with the number of matrices built.  A list
display has its final size before the call's tuple is made.
"""

import ast
from pathlib import Path

import toricip

SRC = Path(toricip.__file__).parent


def _unpacked_generators(tree):
    """Line numbers of calls with a ``*`` argument that is a generator expression."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for arg in node.args
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)]


def test_no_call_unpacks_a_generator():
    found = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
             for line in _unpacked_generators(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_scan_sees_an_unpacked_generator():
    tree = ast.parse("g = lcm(*(v.denominator for v in values))\n"
                     "h = lcm(*[v.denominator for v in values])\n"
                     "row = [*r, *(-v for v in r)]\n"
                     "k = f(1, *(x for x in y), *z)\n")
    assert _unpacked_generators(tree) == [1, 4]
