"""The library's one dot-product implementation, read off its source with ``ast``.

``linalg.dot`` and ``linalg.mat_vec`` sum pairwise products with ``map`` in
C.  The vectors are short, so a hand-written generator of products costs
about twice as much per call; every other module calls the two kernels.
These tests make a new hand-written dot product a visible change.
"""

import ast
from pathlib import Path

import toricip

SRC = Path(toricip.__file__).parent
COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_product(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _sums_of_products(tree):
    """Line numbers of ``sum(p * q for ...)`` and ``sum([p * q for ...])``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "sum" and node.args
            and isinstance(node.args[0], COMPREHENSIONS) and _is_product(node.args[0].elt)]


def _maps_of_mul(tree):
    """Line numbers of ``map(mul, ...)``, the kernel's own loop."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "map" and node.args
            and _name(node.args[0]) == "mul"]


def test_only_linalg_sums_products():
    found = [(module, line) for module, tree in _modules() if module != "linalg"
             for line in _sums_of_products(tree) + _maps_of_mul(tree)]
    assert found == []


def test_linalg_kernels_are_the_map_loops():
    tree = dict(_modules())["linalg"]
    kernels = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _sums_of_products(tree) == []
    assert len(_maps_of_mul(kernels["dot"])) == 1
    assert len(_maps_of_mul(kernels["mat_vec"])) == 1
    assert len(_maps_of_mul(tree)) == 2


def test_the_scan_sees_a_generator_over_zip():
    tree = ast.parse("value = sum(o * v for o, v in zip(obj, x))\n"
                     "rows = [sum([a * b for a, b in zip(r, x)]) for r in m]\n"
                     "other = sum(abs(v) for v in x) + sum(x[j] for j in rays)\n")
    assert _sums_of_products(tree) == [1, 2]
