"""One elimination plan, many offset vectors.

``fibers.Elimination`` plans the Fourier-Motzkin levels of a fixed set of
normals once and then answers each offset vector by one offset pass and the
lex sweep; an offset of None drops its row.  These tests build one plan, run
it on several offset vectors in the order A, B, A (so a plan is reused after
another right-hand side went through it), and hold every answer equal to the
naive ``reference_enum`` on the rows that were kept.  Every answer, [] and
Unbounded included, must also be the one ``reference_plan_sweep`` gives: the
recursive sweep over the same plan's levels that the flat loop replaced.  So
a dead end before a coordinate with no bound on one side gives [], and
Unbounded comes only once the sweep reaches that coordinate.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_enum import (
    reference_boxed,
    reference_lp_sweep,
    reference_plan_sweep,
    reference_recession_trivial,
)

from toricip.errors import Unbounded
from toricip.fibers import Elimination, lattice_points_boxed


def random_normals(rng, dim):
    """Normals over Z^dim: often a coordinate box, some free rows, repeats, multiples, zeros."""
    normals = []
    if rng.random() < 0.7:
        for i in range(dim):
            unit = [0] * dim
            unit[i] = 1
            normals += [tuple(unit), tuple(-v for v in unit)]
    for _ in range(rng.randint(0, 4)):
        s = tuple(rng.randint(-3, 3) for _ in range(dim))
        normals.append(s)
        roll = rng.random()
        if roll < 0.25:  # the same normal again, with its own offset
            normals.append(s)
        elif roll < 0.45:  # a multiple: the gcd floor decides its offset
            normals.append(tuple(2 * v for v in s))
    if rng.random() < 0.2:
        normals.append((0,) * dim)
    rng.shuffle(normals)
    return normals


def random_offsets(rng, normals):
    """One offset per normal, about a quarter of them None (the row dropped)."""
    return [None if rng.random() < 0.25 else rng.randint(-2, 6) for _ in normals]


def outcome(run):
    try:
        return run()
    except Unbounded:
        return Unbounded


def check_reuse(rng, dim, limit, lp_reference=False):
    normals = random_normals(rng, dim)
    plan = Elimination(normals, dim)
    first = random_offsets(rng, normals)
    for offsets in (first, random_offsets(rng, normals), first):
        kept = [(s, o) for s, o in zip(normals, offsets) if o is not None]
        got = outcome(lambda: plan.points(offsets, limit))
        assert got == outcome(lambda: reference_plan_sweep(plan, offsets, limit))
        assert got == outcome(lambda: lattice_points_boxed(kept, dim, limit))
        if reference_recession_trivial(tuple(s for s, _ in kept), dim):
            assert got == reference_boxed(kept, dim, limit)
            if lp_reference:
                assert got == reference_lp_sweep(kept, dim, limit)
        else:
            assert got in (Unbounded, [])
    assert plan.bounded == reference_recession_trivial(tuple(normals), dim)


def test_seeded_reuse():
    rng = random.Random(12)
    for _ in range(150):
        check_reuse(rng, rng.randint(0, 4), rng.choice((1, 2, None)), lp_reference=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.sampled_from((1, 2, None)), st.randoms(use_true_random=False))
def test_hypothesis_reuse(dim, limit, rng):
    check_reuse(rng, dim, limit)


def test_dropped_rows_and_repeated_normals():
    # the square 0 <= z <= 1 twice over, with the tighter copy of z_1 <= . last
    normals = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (0, 0)]
    plan = Elimination(normals, 2)
    assert plan.points([1, 0, 1, 0, 1, 0]) == [(0, 0), (0, 1)]  # 2 z_1 <= 1: z_1 <= 0
    assert plan.points([1, 0, 1, 0, None, 0]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert plan.points([1, 0, 1, 0, 1, -1]) == []  # 0 <= -1
    assert plan.points([1, 0, 1, 0, 1, None], limit=1) == [(0, 0)]
    # no upper bound on z_2 once its row is dropped
    assert outcome(lambda: plan.points([1, 0, None, 0, 3, 0])) is Unbounded
    assert plan.points([1, 0, 1, 0, 1, 0]) == [(0, 0), (0, 1)]
    assert plan.bounded
    assert Elimination([], 0).points([]) == [()]
    assert Elimination([()], 0).points([None]) == [()]
    assert Elimination([()], 0).points([-1]) == []


def check_sweep(plan, offsets, limit=None):
    """plan.points(offsets, limit), held equal to the recursive reference sweep."""
    got = outcome(lambda: plan.points(offsets, limit))
    assert got == outcome(lambda: reference_plan_sweep(plan, offsets, limit))
    return got


def test_dimension_one():
    plan = Elimination([(1,), (-1,), (2,), (-3,)], 1)
    assert check_sweep(plan, [4, 1, None, None]) == [(-1,), (0,), (1,), (2,), (3,), (4,)]
    assert check_sweep(plan, [4, 1, 5, 2]) == [(0,), (1,), (2,)]  # 2 z <= 5, -3 z <= 2
    assert check_sweep(plan, [4, 1, 5, 2], limit=2) == [(0,), (1,)]
    assert check_sweep(plan, [4, 1, 5, 2], limit=3) == [(0,), (1,), (2,)]
    assert check_sweep(plan, [4, 1, 5, 2], limit=9) == [(0,), (1,), (2,)]
    assert check_sweep(plan, [0, -1, None, None]) == []  # 1 <= z <= 0
    assert check_sweep(plan, [None, -1, None, 0]) is Unbounded  # no upper bound
    assert check_sweep(Elimination([(2,), (-2,)], 1), [1, -1]) == []  # 1/2 <= z <= 1/2


SQUARE = [(1, 0), (-1, 0), (0, 1), (0, -1)]  # 0 <= z_1, z_2 <= 3 at offsets [3, 0, 3, 0]


def test_a_limit_inside_the_last_coordinates_range():
    plan = Elimination(SQUARE, 2)
    assert check_sweep(plan, [3, 0, 3, 0], limit=2) == [(0, 0), (0, 1)]
    assert check_sweep(plan, [3, 0, 3, 0], limit=4) == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert check_sweep(plan, [3, 0, 3, 0], limit=16) == check_sweep(plan, [3, 0, 3, 0])


def test_a_limit_across_several_prefixes():
    plan = Elimination(SQUARE, 2)
    assert check_sweep(plan, [3, 0, 3, 0], limit=6) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
    # three coordinates: the limit falls in the third z_2 of the second z_1
    cube = Elimination([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3)
    got = check_sweep(cube, [1, 0, 2, 0, 1, 0], limit=10)
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1),
                   (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_a_dead_end_before_an_unbounded_coordinate_is_empty():
    # z_2 has no lower bound, but the sweep never gets past z_1
    plan = Elimination([(1, 0), (-1, 0), (0, 1)], 2)
    assert not plan.bounded
    assert check_sweep(plan, [0, -1, 5]) == []  # 1 <= z_1 <= 0
    assert check_sweep(plan, [1, 0, 5]) is Unbounded
    # the same with the upper bound of z_1 dropped by a None offset
    assert check_sweep(plan, [None, -1, 5]) is Unbounded
    # three coordinates: z_2 empties every prefix, z_3 is unbounded below
    plan = Elimination([(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 1)], 3)
    assert check_sweep(plan, [2, 0, 1, -1, 0]) == []  # 1/2 <= z_2 <= 1/2
    assert check_sweep(plan, [2, 0, 2, 0, 0]) is Unbounded


def test_backtracking_after_an_inner_dead_end():
    # z_1 = 2 z_2 on 0 <= z_1 <= 4: every odd z_1 is an inner dead end
    plan = Elimination([(1, 0), (-1, 0), (-1, 2), (1, -2)], 2)
    assert check_sweep(plan, [4, 0, 0, 0]) == [(0, 0), (2, 1), (4, 2)]
    assert check_sweep(plan, [4, 0, 0, 0], limit=2) == [(0, 0), (2, 1)]
    # a dead end two levels down: z_3 = z_1 + z_2 must be even, halved
    rows = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, -1, 2), (1, 1, -2)]
    plan = Elimination(rows, 3)
    assert check_sweep(plan, [2, 0, 1, 0, 0, 0]) == [(0, 0, 0), (1, 1, 1), (2, 0, 1)]
    # the last z_1 ends in a dead end: its z_2 range is empty
    plan = Elimination([(1, 0), (-1, 0), (-1, 3), (1, -3)], 2)
    assert check_sweep(plan, [4, 0, 0, 0]) == [(0, 0), (3, 1)]
