"""Property-based checks on small random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linalg import gcd_of_minors, rank
from test_linalg import assert_lll_reduced

from toricip import linalg
from toricip.core import IntMatrix
from toricip.errors import DomainError
from toricip.linalg import dot
from toricip.oracle import IneqPolytope, enumerate_lattice_points, width_along

matrices = st.integers(1, 3).flatmap(
    lambda d: st.integers(d + 1, d + 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
            min_size=d,
            max_size=d,
        )
    )
)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_kernel_basis_properties(rows):
    try:
        a = IntMatrix(tuple(tuple(r) for r in rows))
    except DomainError:
        return
    from toricip.core import kernel_lattice_basis

    b = kernel_lattice_basis(a)
    assert b.corank == a.n - a.d
    for col in b.columns():
        assert all(v == 0 for v in a.apply(col))
    if b.corank:
        assert gcd_of_minors(b.matrix, b.corank) == 1


boxes = st.lists(st.integers(0, 4), min_size=2, max_size=2)


@settings(max_examples=40, deadline=None)
@given(boxes, st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.integers(-4, 4), st.integers(-4, 4))
def test_width_translation_invariance(box, direction, tx, ty):
    if all(v == 0 for v in direction):
        return
    rows = [((1, 0), box[0]), ((-1, 0), 0), ((0, 1), box[1]), ((0, -1), 0)]
    shifted = [
        ((1, 0), box[0] + tx), ((-1, 0), -tx), ((0, 1), box[1] + ty), ((0, -1), -ty)]
    w1 = width_along(IneqPolytope.from_rows(rows), direction)
    w2 = width_along(IneqPolytope.from_rows(shifted), direction)
    assert w1 == w2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                          st.integers(0, 5)), min_size=0, max_size=3))
def test_enumeration_points_satisfy_rows(extra):
    rows = [((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3)]
    rows += [(tuple(r), o) for r, o in extra]
    poly = IneqPolytope.from_rows(rows)
    pts = enumerate_lattice_points(poly)
    for p in pts:
        assert all(dot(s, p) <= o for s, o in poly.rows)
    # brute box double-check
    expected = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if all(dot(s, (x, y)) <= o for s, o in poly.rows)
    ]
    assert sorted(pts) == expected


@settings(max_examples=30, deadline=None)
@given(matrices, st.lists(st.integers(0, 25), min_size=2, max_size=6))
def test_order_ideal_downward_closure(rows, cost):
    try:
        a = IntMatrix(tuple(tuple(r) for r in rows))
    except DomainError:
        return
    if len(cost) < a.n:
        return
    cost = tuple(cost[: a.n])
    from toricip.groebner import CostOrder, toric_groebner, is_generic, normal_form

    generic, _ = is_generic(a, cost)
    if not generic:
        return
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    # reduce a few points; everything below a normal form is a normal form
    for u in [(1,) * a.n, (2, 1) + (0,) * (a.n - 2)]:
        star = normal_form(gb, u)
        for i in range(a.n):
            if star[i]:
                below = star[:i] + (star[i] - 1,) + star[i + 1 :]
                assert normal_form(gb, below) == below


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-40, 40), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        ))))
def test_lll_reduce_properties(vectors):
    if rank(vectors) < len(vectors):
        return
    assert_lll_reduced(vectors, linalg.lll_reduce(vectors))
