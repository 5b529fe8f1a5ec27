"""Fiber enumeration against the test-only reference walk.

``fibers`` writes a fiber {x in N^n : A x = b} as x0 + B z over an echelon
kernel basis and enumerates it with the same Fourier-Motzkin sweep that the
oracle and the relaxation solver use.  ``reference_enum.reference_fiber``
walks x itself, one coordinate at a time, so the two must agree point for
point and in order.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import KNAPSACK, KNAPSACK_COST
from reference_enum import reference_fiber
from reference_linprog import reference_nonneg_feasible

from toricip.core import IntMatrix
from toricip.errors import ParseError, Unbounded
from toricip.fibers import factor
from toricip.groebner import CostOrder, solve_ip
from toricip.oracle import fiber_solve
from toricip.relax import build_relaxation
from toricip.triangulation import regular_subdivision


def test_lex_order_and_first():
    fac = factor(((2, 5, 8),))
    pts = fac.points((10,))
    assert pts == sorted(pts)
    assert fac.first((10,)) == pts[0] == (0, 2, 0)
    assert fac.first((3,)) is None


def test_negative_entry_path():
    # a matrix with negative entries goes through the same sweep
    fac = factor(((1, -1, 3), (0, 2, 1)))
    assert fac.points((3, 3)) == [(1, 1, 1)]
    assert fac.points((1, 0)) == [(1, 0, 0)]
    assert fac.points((-1, 0)) == []


def test_optimum_with_custom_key():
    rows = ((2, 5, 8),)
    # plain cost picks the cheapest point, custom key can invert the choice
    assert fiber_solve(IntMatrix(rows), (10000, 100, 1), (16,)) == (0, 0, 2)
    worst = min(factor(rows).points((16,)), key=lambda x: (-x[0], x))
    assert worst == (8, 0, 0)


def test_matches_box_scan():
    rng = random.Random(0)
    rows = ((1, 2, 1), (0, 1, 3))
    for _ in range(10):
        u = tuple(rng.randint(0, 3) for _ in range(3))
        b = tuple(sum(r[i] * u[i] for i in range(3)) for r in rows)
        expected = sorted(
            (x, y, z)
            for x in range(10)
            for y in range(10)
            for z in range(10)
            if (x + 2 * y + z, y + 3 * z) == b
        )
        assert factor(rows).points(b) == expected


def test_iter_is_lazy():
    # the sweep stops once ``limit`` points are found
    assert factor(((1, 1),)).points((50,), limit=2) == [(0, 50), (1, 49)]


@pytest.mark.parametrize("limit", [-1, True, "x"])
@pytest.mark.parametrize("b", [(1,), (2,)])
def test_a_bad_limit_is_refused_whether_or_not_the_fiber_is_empty(b, limit):
    # with b = (1,), which 2 x_1 + 4 x_2 + 6 x_3 cannot reach, each used to return []
    with pytest.raises(ParseError, match="limit"):
        IntMatrix(((2, 4, 6),)).fibers.points(b, limit)


def _kernel_meets_orthant(rows, n):
    """Whether some x >= 0 with sum 1 has rows @ x = 0, exactly."""
    return reference_nonneg_feasible([*rows, [1] * n], [0] * len(rows) + [1])


def check_against_reference(rows, b):
    n = len(rows[0]) if rows else 0
    if n and _kernel_meets_orthant(rows, n):
        # a nonempty fiber is then infinite, so the sweep must not yield
        with contextlib.suppress(Unbounded):
            assert factor(rows).points(b) == []
        return
    expected = reference_fiber(rows, b)
    fac = factor(rows)
    assert fac.points(b) == expected
    assert fac.points(b, limit=2) == expected[:2]
    assert fac.first(b) == (expected[0] if expected else None)


def random_fiber(rng):
    """A small system: nonnegative or mixed-sign, often of lower rank or corank 0."""
    d = rng.randint(1, 3)
    n = d if rng.random() < 0.15 else d + rng.randint(1, 3)
    lo = 0 if rng.random() < 0.5 else -3
    rows = [[rng.randint(lo, 4) for _ in range(n)] for _ in range(d)]
    if rng.random() < 0.2:  # a repeated or combined row lowers the rank
        rows.append([x + y for x, y in zip(rows[0], rows[-1])])
    rows = tuple(tuple(r) for r in rows)
    if rng.random() < 0.7:
        u = [rng.randint(0, 3) for _ in range(n)]
        b = tuple(sum(a * x for a, x in zip(r, u)) for r in rows)
    else:
        b = tuple(rng.randint(-2, 9) for _ in rows)
    return rows, b


@pytest.mark.parametrize("seed", range(30))
def test_seeded_fibers_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(10):
        check_against_reference(*random_fiber(rng))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_fibers_match_reference(rng):
    check_against_reference(*random_fiber(rng))


@pytest.mark.parametrize("rows, b", [
    (((2, 5, 8),), (27,)),
    (((1, -1, 3), (0, 2, 1)), (5, 6)),
    (((1, 1, 1, 1), (0, 1, 2, 3)), (4, 6)),
    (((1, 1, 1, 1), (0, 1, 2, 3), (1, 2, 3, 4)), (4, 6, 10)),  # rank 2 of 3 rows
    (((1, 1, 1, 1), (0, 1, 2, 3), (1, 2, 3, 4)), (4, 6, 9)),   # inconsistent rows
    (((2, 4),), (3,)),            # b outside the lattice ZA
    (((2, 4), (1, 3)), (6, 4)),   # corank 0, one point
    (((2, 1), (1, 3)), (1, 1)),   # corank 0, rational but not integral
    (((2, 1), (1, 3)), (-1, 2)),  # corank 0, integral but negative
    (((), ()), (0, 0)),           # no columns: the empty point
    (((),), (1,)),                # no columns, b != 0: empty
    ((), ()),                     # no rows and no columns
])
def test_named_fibers_match_reference(rows, b):
    check_against_reference(rows, b)


def test_infinite_fibers_raise_unbounded():
    # (k, k) lies in the fiber for every k
    with pytest.raises(Unbounded):
        factor(((1, -1),)).points((0,))
    # a zero column is free
    with pytest.raises(Unbounded):
        factor(((1, 0),)).points((1,))
    with pytest.raises(Unbounded):
        factor(((1, 0, 2),)).first((2,))


@pytest.mark.parametrize("b", [(), (27, 5)])
def test_rhs_of_wrong_length_is_a_parse_error(b):
    a = IntMatrix(KNAPSACK)
    with pytest.raises(ParseError):
        factor(KNAPSACK).points(b)
    with pytest.raises(ParseError):
        solve_ip(a, CostOrder.from_cost(KNAPSACK_COST), b)
    with pytest.raises(ParseError):
        fiber_solve(a, KNAPSACK_COST, b)
    with pytest.raises(ParseError):
        build_relaxation(a, KNAPSACK_COST, regular_subdivision(a, KNAPSACK_COST), (), b)


def test_one_factorization_serves_every_acceptance_rhs(acceptance_pipelines):
    # the factorization the matrix keeps, reused for all twenty b of each
    # acceptance seed, against the per-call walk over x
    checked = 0
    for inst in acceptance_pipelines:
        a = inst["a"]
        shared = a.fibers
        assert shared == factor(a.entries)
        for b in inst["rhs"]:
            want = reference_fiber(a.entries, b)
            assert shared.points(b) == want, (inst["seed"], b)
            assert shared.first(b) == want[0]
            checked += 1
    assert checked == 2000


@pytest.mark.parametrize("seed", range(20))
def test_factorization_reused_across_rhs_matches_reference(seed):
    # one factorization per system, many b: in the lattice, off it, negative
    rng = random.Random(seed)
    for _ in range(5):
        rows, _ = random_fiber(rng)
        n = len(rows[0])
        if _kernel_meets_orthant(rows, n):
            continue
        fac = factor(rows)
        for _ in range(8):
            if rng.random() < 0.6:
                u = [rng.randint(0, 3) for _ in range(n)]
                b = tuple(sum(a * x for a, x in zip(r, u)) for r in rows)
            else:
                b = tuple(rng.randint(-2, 9) for _ in rows)
            want = reference_fiber(rows, b)
            assert fac.points(b) == want
            assert fac.first(b) == (want[0] if want else None)
