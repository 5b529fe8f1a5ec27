"""Naive linear algebra for the test references.

``linalg.dot`` and ``linalg.mat_vec`` run their loops in C through ``map``.
The references check code that calls those kernels, so they take their
products from here instead: a Python generator over ``zip``, the body the
library used before.  ``tests/test_linalg.py`` holds the kernels equal to
these loops.

``rank`` and ``gcd_of_minors`` are the Fraction elimination and the minor
enumeration the library replaced by its one column-Hermite reduction; the
tests hold the pivot count of ``fibers.factor`` and
``core.gcd_maximal_minors`` equal to them.

``solve_exact`` is the Fraction Gauss-Jordan the library used for each
candidate basis of a subdivision before it walked the bases in integers; the
references that solve a linear system afresh per call take it from here.

``adjugate`` is the cofactor adjugate the library built per simplex before
the subdivision walk handed it each simplex's inverse rows; the tests hold
those rows equal to it up to positive factors.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from toricip.linalg import det_int


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_vec(rows, x):
    return tuple(dot(row, x) for row in rows)


def rank(rows):
    """Rank over Q, by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def gcd_of_minors(rows, k):
    """gcd of the absolute values of all k x k minors (Bareiss determinants)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    g = 0
    for ri in combinations(range(m), k):
        sub = [rows[i] for i in ri]
        for ci in combinations(range(n), k):
            g = gcd(g, det_int([[row[j] for j in ci] for row in sub]))
            if g == 1:
                return 1
    return g


def adjugate(rows):
    """The integer adjugate of a square matrix, so rows @ adj = det(rows) I.

    Entry (i, j) is the (j, i) cofactor, a Bareiss determinant of size n - 1.
    """
    n = len(rows)
    return tuple(
        tuple((-1) ** (i + j) * det_int([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
              for j in range(n))
        for i in range(n))


def solve_exact(rows, rhs):
    """Solve ``rows @ x = rhs`` over Q.

    The matrix must have full column rank.  Returns the unique solution as a
    tuple of Fractions, or None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if r < n:
        raise ValueError("matrix does not have full column rank")
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return tuple(x)
