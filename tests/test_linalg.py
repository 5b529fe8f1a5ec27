import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
import reference_linalg
from conftest import LONG_CHAIN
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricip import linalg
from toricip.core import IntMatrix, gcd_maximal_minors
from toricip.errors import RankDeficient, UnboundedFamily
from toricip.fibers import factor


def det_by_permutations(rows):
    """Leibniz-formula determinant, the independent oracle for det_int."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


@pytest.mark.parametrize("seed", range(30))
def test_det_matches_permutation_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    assert linalg.det_int(rows) == det_by_permutations(rows)


def test_det_singular():
    assert linalg.det_int([[1, 2], [2, 4]]) == 0
    assert linalg.det_int([]) == 1


@pytest.mark.parametrize("seed", range(30))
def test_kernel_basis_spans_and_saturates(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    n = rng.randint(d, d + 3)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
    fac = factor(rows)
    rk = reference_linalg.rank(rows)
    assert fac.rank == rk
    basis = list(zip(*fac.basis))
    assert len(basis) == n - rk
    for col in basis:
        assert all(sum(r[i] * col[i] for i in range(n)) == 0 for r in rows)
    if basis:
        assert reference_linalg.gcd_of_minors(fac.basis, len(basis)) == 1


# (-2 0; 0 1) has a negative Hermite pivot; LONG_CHAIN has g = 5
NAMED_LATTICES = [((-2, 0), (0, 1)), ((1, 0), (0, -3)), ((2, 4, 6),), LONG_CHAIN]


def _low_rank(rng, m, n):
    """An m x n product of an m x k and a k x n matrix, k < min(m, n)."""
    k = rng.randint(0, min(m, n) - 1)
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@pytest.mark.parametrize("seed", range(30))
def test_rank_and_lattice_index_match_the_references(seed):
    rng = random.Random(seed)
    wide = rng.randint(1, 3)
    shapes = [(0, 0), (rng.randint(1, 3), 0), (rng.randint(4, 6), rng.randint(1, 3)),
              (wide, rng.randint(wide + 1, wide + 4)), (rng.randint(1, 4), rng.randint(1, 4))]
    matrices = [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)] for m, n in shapes]
    matrices += [_low_rank(rng, rng.randint(2, 5), rng.randint(2, 5)) for _ in range(3)]
    for rows in matrices:
        assert factor(rows).rank == reference_linalg.rank(rows)
    lattices = list(NAMED_LATTICES)
    while len(lattices) < len(NAMED_LATTICES) + 5:
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(d)]
        try:
            IntMatrix(rows)
        except (RankDeficient, UnboundedFamily):
            continue
        lattices.append(rows)
    for rows in lattices:
        a = IntMatrix(rows)
        assert gcd_maximal_minors(a) == reference_linalg.gcd_of_minors(rows, a.d)


@pytest.mark.parametrize("seed", range(20))
def test_hermite_pivots_match_the_maximal_determinantal_divisor(seed):
    # the saturation check of a kernel basis B reads the gcd of the k x k
    # minors of the k rows of B^T off their column-Hermite form: the product
    # of the pivots, or 0 when a row has none
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(k, 5)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
    if k > 1 and seed % 4 == 0:  # rank-deficient: the last row gets no pivot
        rows[-1] = [2 * v for v in rows[0]]
    h, _, pivots = linalg.column_hermite(rows, n)
    index = 0 if None in pivots else abs(math.prod(h[r][c] for r, c in enumerate(pivots)))
    assert index == reference_linalg.gcd_of_minors(rows, k)


def test_solve_exact_consistency():
    from fractions import Fraction

    sol = reference_linalg.solve_exact([[1, 2], [3, 4]], [5, 6])
    assert sol == (Fraction(-4), Fraction(9, 2))
    assert reference_linalg.solve_exact([[1], [1]], [1, 2]) is None
    with pytest.raises(ValueError):
        reference_linalg.solve_exact([[1, 1]], [1])


def fraction_solve(rows, rhs):
    """A second Fraction Gauss-Jordan, written apart from ``reference_linalg.solve_exact``.

    It pivots down the diagonal and raises at the first column without a
    pivot; the test holds ``solve_exact`` equal to it on solutions, on
    inconsistent systems (None) and on rank deficiency (ValueError).
    """
    from fractions import Fraction

    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, m) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(m):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    if any(a[i][n] != 0 for i in range(n, m)):
        return None
    return tuple(a[i][n] for i in range(n))


@pytest.mark.parametrize("seed", range(40))
def test_solve_exact_matches_fraction_reference(seed):
    # square, tall, consistent, inconsistent and rank-deficient systems
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(0, 4)
        m = rng.randint(n, n + 2)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            x = [rng.randint(-4, 4) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x)) * rng.choice((1, 3)) for row in rows]
        else:
            rhs = [rng.randint(-9, 9) for _ in range(m)]
        try:
            want = fraction_solve(rows, rhs)
        except ValueError:
            with pytest.raises(ValueError):
                reference_linalg.solve_exact(rows, rhs)
            continue
        assert reference_linalg.solve_exact(rows, rhs) == want


def gram_schmidt(vectors):
    """Fraction Gram-Schmidt: the squared lengths |b*_i|^2 and the mu matrix."""
    from fractions import Fraction

    stars, norms = [], []
    mu = [[Fraction(0)] * len(vectors) for _ in vectors]
    for i, v in enumerate(vectors):
        star = [Fraction(x) for x in v]
        for j in range(i):
            mu[i][j] = linalg.dot(v, stars[j]) / norms[j]
            star = [x - mu[i][j] * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(linalg.dot(star, star))
    return norms, mu


def hermite_form(vectors):
    """Canonical column Hermite form of the lattice the vectors span."""
    n, k = len(vectors[0]), len(vectors)
    h, _, pivots = linalg.column_hermite([[v[i] for v in vectors] for i in range(n)], k)
    cols = [[h[i][j] for i in range(n)] for j in range(k)]
    for r, c in enumerate(pivots):
        if c is None:
            continue
        if cols[c][r] < 0:
            cols[c] = [-x for x in cols[c]]
        for left in range(c):
            q = cols[left][r] // cols[c][r]
            cols[left] = [x - q * y for x, y in zip(cols[left], cols[c])]
    return [tuple(col) for col in cols if any(col)]


def assert_lll_reduced(vectors, reduced):
    from fractions import Fraction

    assert hermite_form(reduced) == hermite_form(vectors)
    norms, mu = gram_schmidt(reduced)
    for i in range(len(reduced)):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]


def skewed_basis(rng, k, n):
    """k independent vectors in Z^n, mixed by random unimodular steps."""
    while True:
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if reference_linalg.rank(vecs) == k:
            break
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        vecs[i] = [x + rng.randint(-6, 6) * y for x, y in zip(vecs[i], vecs[j])]
    return [tuple(v) for v in vecs]


@pytest.mark.parametrize("seed", range(40))
def test_lll_reduce_matches_fraction_gram_schmidt(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    vectors = skewed_basis(rng, rng.randint(1, n), n)
    assert_lll_reduced(vectors, linalg.lll_reduce(vectors))


def test_lll_reduce_shortens_a_hermite_kernel_basis():
    # the column-Hermite kernel basis of acceptance seed 34
    vectors = [(4, 11, -16, 20, 0), (17, 51, -74, 92, 2)]
    reduced = linalg.lll_reduce(vectors)
    assert reduced == [(-2, 3, -4, 4, 4), (-5, -1, 2, -4, 6)]
    assert_lll_reduced(vectors, reduced)


def test_lll_reduce_edge_cases():
    assert linalg.lll_reduce([]) == []
    assert linalg.lll_reduce([(0, -3, 0)]) == [(0, -3, 0)]
    for dependent in [[(0, 0)], [(1, 2, 3), (2, 4, 6)], [(1, 0), (0, 0), (0, 1)]]:
        with pytest.raises(ValueError):
            linalg.lll_reduce(dependent)


# ints of both signs, past 2**64, Fractions, and the two mixed in one vector
ENTRIES = st.one_of(st.integers(-2**70, 2**70), st.fractions(max_denominator=10**6))
VECTORS = st.lists(ENTRIES, max_size=7)


def _typed(value):
    return value, type(value)


@settings(max_examples=150, deadline=None)
@given(VECTORS, VECTORS, st.lists(VECTORS, max_size=5))
@example([], [], [])
@example([2**64 + 1, -(2**65)], [2**64 - 1, 3], [[-(2**70), 2**70 - 1]])
def test_dot_and_mat_vec_equal_the_naive_loops(u, v, rows):
    # same terms in the same order, stopping at the shorter vector as zip does
    assert _typed(linalg.dot(u, v)) == _typed(reference_linalg.dot(u, v))
    got = linalg.mat_vec(rows, v)
    want = reference_linalg.mat_vec(rows, v)
    assert type(got) is tuple and list(map(_typed, got)) == list(map(_typed, want))


def test_dot_and_mat_vec_edge_cases():
    assert _typed(linalg.dot((), ())) == (0, int)
    assert _typed(linalg.dot((1, 2, 3), (4,))) == (4, int)
    assert _typed(linalg.dot((1, Fraction(1, 2)), (2, 2))) == (Fraction(3), Fraction)
    assert linalg.mat_vec((), (1, 2)) == ()
    assert linalg.mat_vec(((1, 2), ()), (3, 4)) == (11, 0)
