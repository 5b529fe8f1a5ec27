"""Exact integer and rational linear algebra on plain tuples.

Matrices are sequences of rows; all arithmetic is over Python ints and
``fractions.Fraction``, so nothing here ever rounds.
"""

from fractions import Fraction
from math import lcm
from operator import mul


def det_int(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _colop_combine(mat, j0, j1, x, y, z, w):
    """Columns (j0, j1) <- (x*j0 + y*j1, z*j0 + w*j1), in place."""
    for row in mat:
        a, b = row[j0], row[j1]
        row[j0] = x * a + y * b
        row[j1] = z * a + w * b


def column_hermite(rows, n):
    """Column Hermite reduction A*U = [H | 0], U unimodular: (H, U, pivots) as rows.

    Row r of A pivots in column pivots[r] of H, or in none (None); pivot
    columns come in row order and H is zero right of each pivot.
    """
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = []
    cc = 0
    for r in range(len(a)):
        piv = next((j for j in range(cc, n) if a[r][j] != 0), None)
        if piv is None:
            pivots.append(None)
            continue
        if piv != cc:
            for row in a:
                row[cc], row[piv] = row[piv], row[cc]
            for row in u:
                row[cc], row[piv] = row[piv], row[cc]
        for j in range(cc + 1, n):
            if a[r][j] == 0:
                continue
            p, q = a[r][cc], a[r][j]
            g, x, y = _xgcd(p, q)
            _colop_combine(a, cc, j, x, y, -(q // g), p // g)
            _colop_combine(u, cc, j, x, y, -(q // g), p // g)
        pivots.append(cc)
        cc += 1
    return a, u, pivots


def lll_reduce(vectors):
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by independent vectors.

    Cohen's integral LLL (A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): d[i] is the Gram determinant of the first i vectors and
    lam[k][j] = d[j+1] * mu[k][j], so every step stays in the integers.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    if n == 0:
        return []
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k + 1]
        d[k] = new

    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("vectors are linearly dependent")
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("vectors are linearly dependent")
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return [tuple(v) for v in b]


def _xgcd(a, b):
    """g, x, y with x*a + y*b = g = gcd(a, b), g > 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mat_vec(rows, x):
    """rows @ x: :func:`dot` of each row with x."""
    return tuple([sum(map(mul, row, x)) for row in rows])


def dot(u, v):
    """Sum of the pairwise products, left to right, up to the shorter vector.

    The vectors are short, so call overhead dominates: ``map`` runs the loop
    in C where a generator over ``zip`` resumes a Python frame per term.  This
    and :func:`mat_vec` are the library's only dot-product loops.
    """
    return sum(map(mul, u, v))


def clear_denominators(values):
    """Integers ``ints`` and a positive ``scale`` with values == ints / scale."""
    values = [v if type(v) is int else Fraction(v) for v in values]
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale
