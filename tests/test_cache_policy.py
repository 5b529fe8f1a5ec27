"""The library's cache policy, read off its source with ``ast``.

Four functions are memoized across calls, and they are the four caches the
benchmark harness empties between operations.  Every other memo is a
``cached_property`` of an object a single operation builds for itself, so it
dies with that object.  A new cross-call cache would carry work from one
operation to the next unseen; these tests make adding one a visible change.
"""

import ast
from pathlib import Path

import toricip

SRC = Path(toricip.__file__).parent
CROSS_CALL = {"lru_cache", "cache"}
ALLOWED_CACHES = {
    ("core", "cached_kernel_basis"),
    ("groebner", "cached_groebner"),
    ("triangulation", "cached_subdivision"),
    ("oracle", "_recession_trivial"),
}
PER_OBJECT_HOSTS = {"RegularSubdivision", "Decomposition"}


def _name(node):
    """The bare name a decorator or reference refers to (``functools.x`` -> ``x``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _decorated(names):
    """(module, owner, function) for every function decorated with one of names."""
    out = []
    for module, tree in _modules():
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    owners[child] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) in names for d in node.decorator_list):
                    out.append((module, owners.get(node), node.name))
    return out


def test_cross_call_caches_are_exactly_the_four_the_benchmark_clears():
    found = {(module, name) for module, _, name in _decorated(CROSS_CALL)}
    assert found == ALLOWED_CACHES


def test_no_cross_call_cache_is_made_outside_a_decorator():
    # lru_cache(maxsize=...)(f) or a bare functools.cache(f) would escape the
    # decorator scan above
    decorators = set()
    calls = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorators.update(map(id, node.decorator_list))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _name(node.func) in CROSS_CALL
                    and id(node) not in decorators):
                calls.append((module, node.lineno))
    assert calls == []


def test_per_object_memos_live_on_per_operation_objects():
    hosts = {owner for _, owner, _ in _decorated({"cached_property"})}
    assert hosts <= PER_OBJECT_HOSTS
    assert "IntMatrix" not in hosts
