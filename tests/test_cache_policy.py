"""The library's cache policy, read off its source with ``ast``.

Four functions are memoized across calls, and they are the four caches the
benchmark harness empties between operations.  Every other memo is a
``cached_property`` of an object a single operation builds for itself, so it
dies with that object.  A new cross-call cache would carry work from one
operation to the next unseen; these tests make adding one a visible change,
and they pin the per-object memos by class and name, so adding one of those
is a visible change too.

Each cached object has one builder.  The ``cached_*`` names are handles to
the same cache objects, for ``cache_info()`` and ``cache_clear()`` only: no
other module names them, and no module keeps an alias of a builder.
"""

import ast
from pathlib import Path

import toricip

SRC = Path(toricip.__file__).parent
CROSS_CALL = {"lru_cache", "cache"}
ALLOWED_CACHES = {
    ("core", "kernel_lattice_basis"),
    ("groebner", "toric_groebner"),
    ("triangulation", "_subdivision"),
    ("oracle", "_recession_trivial"),
}
# handle -> (defining module, the cached function it names)
HANDLES = {
    "cached_kernel_basis": ("core", "kernel_lattice_basis"),
    "cached_groebner": ("groebner", "toric_groebner"),
    "cached_subdivision": ("triangulation", "_subdivision"),
}
BUILDERS = {name for _, name in ALLOWED_CACHES} | {"regular_subdivision"} | set(HANDLES)
# (class, cached_property): the per-object memos the README lists
PER_OBJECT_MEMOS = {
    ("RegularSubdivision", "cost_coordinates"),
    ("RegularSubdivision", "relaxation_elimination"),
    ("Decomposition", "pair_scan"),
    ("GroebnerBasis", "reducers"),
}
PER_OBJECT_HOSTS = {host for host, _ in PER_OBJECT_MEMOS}


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


def test_per_object_memos_are_exactly_the_listed_ones():
    # a new memo is added on purpose: here and in the README "Caches" paragraph
    found = {(owner, name) for _, owner, name in _decorated({"cached_property"})}
    assert found == PER_OBJECT_MEMOS


def test_cache_handles_are_named_only_where_they_are_defined():
    named = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = _name(node)
            else:
                continue
            if name in HANDLES and HANDLES[name][0] != module:
                named.append((module, name, node.lineno))
    assert named == []


def test_no_module_level_alias_of_a_builder():
    # ``_lattice = cached_kernel_basis`` was a second name for a builder; the
    # only module-level aliases are the handles, each bound to its own cache
    aliases = set()
    for module, tree in _modules():
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute))
                    and _name(node.value) in BUILDERS):
                aliases.update((module, _name(t), _name(node.value)) for t in node.targets)
    assert aliases == {(module, handle, cached) for handle, (module, cached) in HANDLES.items()}
