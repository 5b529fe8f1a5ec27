import random
from fractions import Fraction
from itertools import combinations

import pytest
import reference_linprog
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linalg import solve_exact
from reference_linprog import reference_nonneg_feasible, reference_solve_lp

import toricip.linprog
from toricip.linalg import dot
from toricip.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, nonneg_feasible, solve_lp


def vertex_oracle(c, a_ub, b_ub, maximize=False):
    """Optimum by enumerating basic solutions; valid for bounded feasible LPs."""
    n = len(c)
    best = None
    for sub in combinations(range(len(a_ub)), n):
        rows = [a_ub[i] for i in sub]
        try:
            x = solve_exact(rows, [b_ub[i] for i in sub])
        except ValueError:
            continue
        if x is None:
            continue
        if all(dot(r, x) <= b for r, b in zip(a_ub, b_ub)):
            val = dot(c, x)
            if best is None or (val > best if maximize else val < best):
                best = val
    return best


@pytest.mark.parametrize("seed", range(40))
def test_against_vertex_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    # random rows plus a box to keep things bounded
    a_ub = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    b_ub = [rng.randint(0, 6) for _ in a_ub]  # 0 feasible
    for i in range(n):
        lo = [0] * n
        lo[i] = -1
        hi = [0] * n
        hi[i] = 1
        a_ub += [lo, hi]
        b_ub += [rng.randint(1, 5), rng.randint(1, 5)]
    c = [rng.randint(-5, 5) for _ in range(n)]
    res = solve_lp(c, a_ub, b_ub)
    assert res.status == OPTIMAL
    assert res.value == vertex_oracle(c, a_ub, b_ub)


def test_infeasible():
    res = solve_lp([1], a_ub=[[1], [-1]], b_ub=[-2, 1])  # x <= -2 and x >= -1
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([1], a_ub=[[1]], b_ub=[0])  # minimize x, x <= 0
    assert res.status == UNBOUNDED


def test_equalities_and_value():
    # minimize x + y with x + 2y = 4, x >= 0, y >= 0
    res = solve_lp(
        [1, 1], a_ub=[[-1, 0], [0, -1]], b_ub=[0, 0], a_eq=[[1, 2]], b_eq=[4]
    )
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x == (Fraction(0), Fraction(2))


def test_maximize_sense():
    res = solve_lp([1], a_ub=[[1], [-1]], b_ub=[7, 0], maximize=True)
    assert res.status == OPTIMAL and res.value == 7


def test_degenerate_redundant_rows():
    res = solve_lp(
        [1, 0],
        a_eq=[[1, 1], [2, 2]],
        b_eq=[3, 6],
        a_ub=[[-1, 0], [0, -1]],
        b_ub=[0, 0],
    )
    assert res.status == OPTIMAL and res.value == 0


@pytest.mark.parametrize("seed", range(25))
def test_against_scipy_on_mixed_systems(seed):
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    b_ub = [rng.randint(0, 5) for _ in a_ub]
    a_eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 1))]
    b_eq = [0 for _ in a_eq]
    for i in range(n):  # box keeps it bounded
        hi = [0] * n
        hi[i] = 1
        lo = [0] * n
        lo[i] = -1
        a_ub += [hi, lo]
        b_ub += [rng.randint(1, 4), rng.randint(1, 4)]
    c = [rng.randint(-4, 4) for _ in range(n)]
    mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    ref = scipy_opt.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq or None, b_eq=b_eq or None,
        bounds=[(None, None)] * n, method="highs")
    if mine.status == OPTIMAL:
        assert ref.status == 0
        assert abs(float(mine.value) - ref.fun) < 1e-7
    elif mine.status == INFEASIBLE:
        assert ref.status == 2


def assert_matches_reference(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False):
    """solve_lp and the Fraction-tableau reference give the same LPResult."""
    mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    ref = reference_solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    assert (mine.status, mine.x, mine.value) == (ref.status, ref.x, ref.value)
    assert type(mine.value) is type(ref.value)
    if mine.x is not None:
        assert all(type(v) is Fraction for v in mine.x)
    return mine


REFERENCE_CASES = {
    # x, y free, optimum at negative coordinates
    "free_variables": (OPTIMAL, [1, 1], dict(a_ub=[[-1, 0], [0, -1]], b_ub=[3, 2])),
    "mixed_rows": (OPTIMAL, [1, -1, 2], dict(
        a_ub=[[1, 1, 0], [0, -1, 1], [-1, 0, 0], [0, 0, -1]], b_ub=[4, 1, 0, 0],
        a_eq=[[1, 0, 1]], b_eq=[2])),
    # the second and third rows repeat the first: phase 1 leaves artificials
    # basic at zero, and the drive-out deletes their rows
    "redundant_equalities": (OPTIMAL, [1, 0], dict(
        a_eq=[[1, 1], [2, 2], [-1, -1]], b_eq=[3, 6, -3], a_ub=[[-1, 0], [0, -1]],
        b_ub=[0, 0])),
    # an equality with zero right-hand side pivots its artificial out
    "zero_rhs_equality": (OPTIMAL, [1, 2], dict(
        a_eq=[[1, -1]], b_eq=[0], a_ub=[[-1, 0]], b_ub=[1])),
    "infeasible": (INFEASIBLE, [1, 1], dict(
        a_ub=[[1, 1], [-1, 0], [0, -1]], b_ub=[-1, 0, 0])),
    "infeasible_equalities": (INFEASIBLE, [0], dict(a_eq=[[1], [1]], b_eq=[1, 2])),
    "unbounded": (UNBOUNDED, [-1, 0], dict(a_ub=[[-1, 1]], b_ub=[2])),
    "fractions": (OPTIMAL, [Fraction(1, 2), Fraction(-2, 3)], dict(
        a_ub=[[Fraction(1, 3), 1], [1, Fraction(-1, 2)], [-1, 0], [0, -1]],
        b_ub=[Fraction(5, 2), 3, 0, 0], a_eq=[[Fraction(1, 7), Fraction(2, 7)]],
        b_eq=[Fraction(3, 5)])),
    "maximize": (OPTIMAL, [3, 2], dict(
        a_ub=[[1, 1], [1, 3], [-1, 0], [0, -1]], b_ub=[4, 6, 0, 0], maximize=True)),
    "maximize_unbounded": (UNBOUNDED, [1], dict(a_ub=[[-1]], b_ub=[0], maximize=True)),
    "empty_a_ub": (OPTIMAL, [1, 2], dict(a_eq=[[1, 1], [1, -1]], b_eq=[4, 2])),
    "no_rows": (OPTIMAL, [0, 0], {}),
    "no_rows_unbounded": (UNBOUNDED, [0, 1], {}),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_matches_reference_on_named_cases(name):
    status, c, kwargs = REFERENCE_CASES[name]
    assert assert_matches_reference(c, **kwargs).status == status


def random_system(rng):
    """A small LP with free variables, mixed rows and, at times, Fractions."""
    fractional = rng.random() < 0.3

    def num():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 5)) if fractional and rng.random() < 0.4 else v

    n = rng.randint(0, 4)
    a_ub = [[num() for _ in range(n)] for _ in range(rng.randint(0, 5))]
    b_ub = [num() for _ in a_ub]
    a_eq = [[num() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    b_eq = [num() for _ in a_eq]
    if a_eq and rng.random() < 0.4:  # a redundant equality
        k = rng.choice([-2, -1, 2, 3])
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return [num() for _ in range(n)], a_ub, b_ub, a_eq, b_eq, rng.random() < 0.5


def recorded_pivots(monkeypatch, module):
    seen = []
    pivot = module._pivot

    def recording(tab, basis, i, j):
        seen.append((i, j))
        return pivot(tab, basis, i, j)

    monkeypatch.setattr(module, "_pivot", recording)
    return seen


@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_seeded(seed, monkeypatch):
    mine = recorded_pivots(monkeypatch, toricip.linprog)
    ref = recorded_pivots(monkeypatch, reference_linprog)
    rng = random.Random(seed)
    for _ in range(25):
        c, a_ub, b_ub, a_eq, b_eq, maximize = random_system(rng)
        assert_matches_reference(c, a_ub, b_ub, a_eq, b_eq, maximize)
        # same pivots, in the same order
        assert mine == ref
        mine.clear()
        ref.clear()


coefficients = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def lp_problems(draw):
    n = draw(st.integers(0, 4))
    row = st.lists(coefficients, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=5))
    b_ub = draw(st.lists(coefficients, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    b_eq = draw(st.lists(coefficients, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):  # a redundant equality
        k = draw(st.integers(-3, 3))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return draw(row), a_ub, b_ub, a_eq, b_eq, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(lp_problems())
def test_matches_reference_property(problem):
    assert_matches_reference(*problem)


NONNEG_CASES = {
    # (expected, rows, b)
    "zero_columns_zero_b": (True, [[], []], [0, 0]),
    "zero_columns_nonzero_b": (False, [[], []], [0, 3]),
    "no_rows": (True, [], []),
    "zero_b": (True, [[1, -2, 3], [0, 1, -1]], [0, 0]),
    "negative_b": (True, [[-1, 2], [0, -1]], [-3, -1]),
    "negative_b_outside": (False, [[1, 2], [0, 1]], [-3, 1]),
    "redundant_rows": (True, [[1, 1], [2, 2], [-1, -1]], [3, 6, -3]),
    "inconsistent_rows": (False, [[1, 1], [2, 2]], [3, 5]),
    "sign_blocks": (False, [[1, 1, 0], [0, 0, 1]], [-1, 2]),
    "fractions": (True, [[Fraction(1, 3), Fraction(-1, 2)], [1, 0]],
                  [Fraction(1, 6), Fraction(2)]),
    "fractions_infeasible": (False, [[Fraction(1, 3), Fraction(1, 2)]], [Fraction(-1, 5)]),
    # the cone of (1, 0), (1, 1) misses (0, 1)
    "outside_cone": (False, [[1, 1], [0, 1]], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(NONNEG_CASES))
def test_nonneg_feasible_named_cases(name):
    want, rows, b = NONNEG_CASES[name]
    assert nonneg_feasible(rows, b) == reference_nonneg_feasible(rows, b) == want


def random_nonneg_system(rng):
    """Rows and b of {x >= 0 : rows x = b}: mixed signs, at times Fractions,
    redundant rows, b = 0 or no columns."""
    fractional = rng.random() < 0.3

    def num():
        v = rng.randint(-3, 3)
        return Fraction(v, rng.randint(1, 4)) if fractional and rng.random() < 0.4 else v

    d, k = rng.randint(1, 4), rng.randint(0, 6)
    rows = [[num() for _ in range(k)] for _ in range(d)]
    if rng.random() < 0.3:  # b in the cone, built from some x >= 0
        x = [rng.randint(0, 2) for _ in range(k)]
        b = [dot(r, x) for r in rows]
    else:
        b = [0 if rng.random() < 0.2 else num() for _ in range(d)]
    if rng.random() < 0.3:  # a redundant or, when b is off, an inconsistent row
        m = rng.choice([-2, -1, 2])
        rows.append([m * v for v in rows[0]])
        b.append(m * b[0] + rng.choice([0, 0, 1]))
    return rows, b


@pytest.mark.parametrize("seed", range(20))
def test_nonneg_feasible_matches_reference_seeded(seed):
    rng = random.Random(seed)
    for _ in range(50):
        rows, b = random_nonneg_system(rng)
        assert nonneg_feasible(rows, b) == reference_nonneg_feasible(rows, b)


@st.composite
def nonneg_systems(draw):
    k = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(coefficients, min_size=k, max_size=k), min_size=1, max_size=4))
    b = draw(st.lists(coefficients, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):  # a redundant row
        m = draw(st.integers(-3, 3))
        rows.append([m * v for v in rows[0]])
        b.append(m * b[0])
    return rows, b


@settings(max_examples=300, deadline=None)
@given(nonneg_systems())
def test_nonneg_feasible_matches_reference_property(system):
    rows, b = system
    assert nonneg_feasible(rows, b) == reference_nonneg_feasible(rows, b)
