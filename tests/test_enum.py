"""The library's lattice-point enumerators against the naive references.

``oracle.lattice_points_boxed`` is the only enumerator of {s . z <= o} in
the library, and ``oracle._recession_trivial`` is built on its elimination.
``hilbert._parallelepiped_points`` eliminates nothing: given coordinates on
which the generators are nonsingular, and rows that are positive multiples of
the rows of that minor's inverse, it reads one point per coset off a
column-Hermite form.  Each must give exactly what the test-only versions in
``reference_enum`` give: the same points in the same order, and the same
boundedness verdicts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_enum import (
    reference_boxed,
    reference_lp_sweep,
    reference_parallelepiped_points,
    reference_recession_trivial,
)
from reference_linalg import adjugate, rank

from toricip.errors import ParseError, Unbounded
from toricip.hilbert import _parallelepiped_points
from toricip.linalg import det_int
from toricip.oracle import (
    IneqPolytope,
    _recession_trivial,
    enumerate_lattice_points,
    lattice_points_boxed,
)


def random_system(rng, dim, boxed):
    """Random rows over Z^dim; with ``boxed``, a coordinate box keeps them bounded."""
    rows = []
    if boxed:
        for i in range(dim):
            unit = [0] * dim
            unit[i] = 1
            rows.append((tuple(unit), rng.randint(-1, 3)))
            rows.append((tuple(-v for v in unit), rng.randint(-1, 3)))
    for _ in range(rng.randint(0, 4)):
        s = tuple(rng.randint(-3, 3) for _ in range(dim))
        rows.append((s, rng.randint(-2, 6)))
        if rng.random() < 0.2:  # a repeated normal with another offset
            rows.append((s, rng.randint(-2, 6)))
    if rng.random() < 0.1:
        rows.append(((0,) * dim, rng.randint(-1, 1)))
    return rows


def check_against_references(rows, dim):
    normals = tuple(s for s, _ in rows)
    bounded = _recession_trivial(normals, dim)
    assert bounded == reference_recession_trivial(normals, dim)
    if not bounded:
        if rows:
            with pytest.raises(Unbounded):
                enumerate_lattice_points(IneqPolytope.from_rows(rows))
        return
    for limit in (None, 1, 2):
        swept = lattice_points_boxed(rows, dim, limit)
        assert swept == reference_boxed(rows, dim, limit)
        assert swept == reference_lp_sweep(rows, dim, limit)
        if rows:
            assert enumerate_lattice_points(IneqPolytope.from_rows(rows), limit) == swept


@pytest.mark.parametrize("seed", range(40))
def test_seeded_systems(seed):
    rng = random.Random(seed)
    for _ in range(10):
        dim = rng.randint(0, 4)
        check_against_references(random_system(rng, dim, boxed=rng.random() < 0.7), dim)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
def test_hypothesis_systems(dim, boxed, rng):
    check_against_references(random_system(rng, dim, boxed), dim)


def test_named_cases():
    # no rows at all: dim 0 holds the empty point, dim >= 1 is unbounded
    assert lattice_points_boxed([], 0) == [()]
    with pytest.raises(Unbounded):
        lattice_points_boxed([], 2)
    assert not _recession_trivial((), 2)
    # a violated all-zero row empties the set, even when it is unbounded
    assert lattice_points_boxed([((0, 0), -1)], 2) == []
    assert lattice_points_boxed([((0,), -1)] + [((1,), 3), ((-1,), 0)], 1) == []
    # an interval holding no integer is empty
    assert lattice_points_boxed([((5,), 4), ((-5,), -1)], 1) == []
    # repeated normals keep the tighter offset
    rows = [((1, 0), 5), ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]
    assert lattice_points_boxed(rows, 2) == [(0, 0), (1, 0)]
    # limit stops the lex sweep early
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert lattice_points_boxed(square, 2, limit=1) == [(0, 0)]
    assert lattice_points_boxed(square, 2, limit=2) == [(0, 0), (0, 1)]


def test_a_limit_below_one_finds_no_point():
    # each used to return [(0, 0)]: the sweep checked the limit only after a point
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert enumerate_lattice_points(IneqPolytope.from_rows(square), limit=0) == []
    assert lattice_points_boxed([], 0, limit=0) == []
    with pytest.raises(ParseError, match="negative"):
        lattice_points_boxed(square, 2, limit=-3)


@pytest.mark.parametrize("limit", [1.5, True, False, "2"])
def test_a_limit_that_is_not_an_int_is_refused(limit):
    # 1.5 used to return two points and True one
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    with pytest.raises(ParseError, match="limit"):
        lattice_points_boxed(square, 2, limit)
    with pytest.raises(ParseError, match="limit"):
        lattice_points_boxed([], 0, limit)


UNIT_SQUARE = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]


@pytest.mark.parametrize("rows, dim", [
    (UNIT_SQUARE, 1),  # a longer normal: used to be cut, giving [(0,), (1,)]
    (UNIT_SQUARE, 3),  # a shorter normal: used to raise IndexError
    ([((1,), 1), ((-1,), 0.5)], 1),  # a float offset: used to raise TypeError
    ([((1,), True), ((-1,), 0)], 1),  # a bool offset: used to be read as 1
], ids=["longer-normal", "shorter-normal", "float-offset", "bool-offset"])
def test_a_malformed_row_is_refused(rows, dim):
    with pytest.raises(ParseError, match="inequality row"):
        lattice_points_boxed(rows, dim)


def test_unbounded_raises_through_enumerate():
    ray = IneqPolytope.from_rows([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, -1), 0)])
    assert not reference_recession_trivial(tuple(s for s, _ in ray.rows), 3)
    with pytest.raises(Unbounded):
        enumerate_lattice_points(ray)
    # a slab: bounded in z_1 only
    slab = IneqPolytope.from_rows([((1, 0), 2), ((-1, 0), 0)])
    with pytest.raises(Unbounded):
        enumerate_lattice_points(slab)
    with pytest.raises(Unbounded):
        lattice_points_boxed(slab.rows, 2)


# generators and coordinates on which they are nonsingular
NAMED_PARALLELEPIPEDS = [
    ([(1, 1), (0, 4)], (0, 1)),                      # r = d
    ([(2, 0, 1), (0, 3, 1), (1, 1, 5)], (0, 1, 2)),  # r = d, det = 25
    ([(3, 1), (1, -2)], (0, 1)),                     # det = -7
    ([(2, 4)], (0,)),                                # r < d: a segment
    ([(1, 0, 1), (0, 2, 1)], (0, 1)),                # r < d in Z^3
    ([(3, 0, 0, 1), (0, 2, 2, 0)], (0, 1)),          # r < d in Z^4
    ([(2, 4)], (1,)),                                # the segment, read on its other coordinate
    ([(1, 0, 1), (0, 2, 1)], (1, 2)),                # det = -2 on the last two coordinates
]


def _points(gens, coords, factors=None):
    """The parallelepiped points, with inverse rows from the reference adjugate times the sign.

    Those rows are |det| M^{-1}; ``factors`` scales row t by a further factors[t] > 0.
    """
    minor = [[g[i] for g in gens] for i in coords]
    sign = 1 if det_int(minor) > 0 else -1
    factors = factors or [1] * len(gens)
    rows = [[sign * f * v for v in row] for f, row in zip(factors, adjugate(minor))]
    return _parallelepiped_points(gens, coords, rows)


@pytest.mark.parametrize("gens, coords", NAMED_PARALLELEPIPEDS,
                         ids=[f"gens{i}" for i in range(len(NAMED_PARALLELEPIPEDS))])
def test_parallelepiped_named(gens, coords):
    assert _points(gens, coords) == reference_parallelepiped_points(gens)


@pytest.mark.parametrize("gens, coords", NAMED_PARALLELEPIPEDS,
                         ids=[f"gens{i}" for i in range(len(NAMED_PARALLELEPIPEDS))])
def test_parallelepiped_rows_may_carry_any_positive_factor(gens, coords):
    # the subdivision walk scales each inverse row by its own positive factor
    factors = [t + 2 for t in range(len(gens))]
    assert _points(gens, coords, factors) == reference_parallelepiped_points(gens)


def _rank_rows(gens):
    """The first coordinates on which the generators keep their rank, chosen greedily."""
    coords = []
    for i in range(len(gens[0])):
        if rank([[g[k] for g in gens] for k in [*coords, i]]) > len(coords):
            coords.append(i)
    return coords


@pytest.mark.parametrize("seed", range(20))
def test_parallelepiped_seeded(seed):
    rng = random.Random(seed)
    done = 0
    while done < 5:
        d = rng.randint(1, 4)
        r = rng.randint(1, d)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(r)]
        if rank(gens) < r:
            continue
        got = _points(gens, _rank_rows(gens))
        assert got == reference_parallelepiped_points(gens)
        done += 1
