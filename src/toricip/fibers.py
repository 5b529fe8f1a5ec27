"""Exact lattice-point enumeration: one sweep for inequality systems and fibers.

:func:`lattice_points_boxed`, an integer Fourier-Motzkin sweep (Schrijver,
*Theory of Linear and Integer Programming*, 12.2), is the library's only
enumerator of {z in Z^k : s . z <= o}.  A fiber {x in N^n : A x = b} is
{x0 + B z : -B z <= x0}: one column-Hermite reduction of A gives an integer
x0 with A x0 = b (or shows there is none), and a second brings the kernel
basis to column-echelon form B with positive pivots.  Then the coordinates
of x before the pivot row of z_2 depend on z_1 alone, and the pivot row of
z_1 grows strictly with it; so on for z_2, z_3, ...  Lex order on z is lex
order on x, so the sweep yields the fiber in lex order.  Both reductions
depend on A alone: :func:`factor` does them once, and its
:class:`Factorization` answers every b.  An infinite fiber
(the kernel of A meets the nonnegative orthant; IntMatrix rules that out)
raises Unbounded.
"""

import math
from dataclasses import dataclass

from . import core  # a module reference: core imports this module
from .errors import Unbounded
from .linalg import column_hermite, dot, mat_vec


def _fm_levels(rows, dim):
    """Integer Fourier-Motzkin elimination of {s . z <= o} (Schrijver, 12.2).

    Level k (0-based) maps each normal over z_1..z_(k+1) to its least
    offset; the last level is the input, and each level below eliminates the
    next coordinate by pairing every row positive in it with every row
    negative in it.  Rows are divided by the gcd of their coefficients with
    the offset floored, which keeps every integer point.  All-zero rows end
    up on level 0 under the key (0,).
    """
    level = {}
    for s, o in rows:
        _add_row(level, tuple(s), o)
    levels = [level]
    for k in range(dim - 1, 0, -1):
        below = {}
        pos = []
        neg = []
        for s, o in level.items():
            if s[k] > 0:
                pos.append((s, o))
            elif s[k] < 0:
                neg.append((s, o))
            else:
                _add_row(below, s[:k], o)
        for s, o in pos:
            for t, q in neg:
                a, b = s[k], -t[k]
                _add_row(below, tuple(b * x + a * y for x, y in zip(s[:k], t[:k])), b * o + a * q)
        level = below
        levels.append(level)
    levels.reverse()
    return levels


def _add_row(level, s, o):
    """Store s . z <= o divided by the gcd of s, keeping the least offset per normal."""
    g = math.gcd(*s)
    if g > 1:
        s = tuple(c // g for c in s)
        o //= g
    old = level.get(s)
    if old is None or o < old:
        level[s] = o


def _bound_rows(levels):
    """Per level k: the (prefix, coefficient, offset) rows bounding z_(k+1) above, below."""
    out = []
    for k, level in enumerate(levels):
        upper = [(s[:k], s[k], o) for s, o in level.items() if s[k] > 0]
        lower = [(s[:k], s[k], o) for s, o in level.items() if s[k] < 0]
        out.append((upper, lower))
    return out


def lattice_points_boxed(rows, dim, limit=None):
    """Integer points of {s . z <= o} in ascending lex order, by one exact sweep.

    The rows are projected once by integer Fourier-Motzkin elimination; then
    z_1, ..., z_dim are swept in turn, each between the closed-form integer
    bounds its level gives once the earlier coordinates are fixed.  ``limit``
    stops the sweep once that many points are found.  Returns [] when a
    constant row is violated and raises Unbounded when a coordinate the
    sweep reaches has no bound on one side.
    """
    if dim == 0:
        return [()] if all(o >= 0 for _, o in rows) else []
    levels = _fm_levels(rows, dim)
    if levels[0].get((0,), 0) < 0:
        return []
    bounds = _bound_rows(levels)
    out = []

    def sweep(prefix):
        k = len(prefix)
        upper, lower = bounds[k]
        if not upper or not lower:
            raise Unbounded(f"coordinate {k + 1} is unbounded")
        hi = min((o - dot(p, prefix)) // c for p, c, o in upper)
        lo = max(-((o - dot(p, prefix)) // -c) for p, c, o in lower)
        for v in range(lo, hi + 1):
            if k + 1 < dim:
                if sweep(prefix + (v,)):
                    return True
            else:
                out.append(prefix + (v,))
                if limit is not None and len(out) >= limit:
                    return True
        return False

    sweep(())
    return out


@dataclass(frozen=True)
class Factorization:
    """rows U = [H | 0] with U unimodular, and an echelon kernel basis B.

    Everything here depends on the rows alone, so one factorization serves
    every right-hand side: each b then costs a forward substitution through
    H, the check rows @ x0 = b and the sweep over z.
    """

    rows: tuple
    h: tuple
    u: tuple
    pivots: tuple  # pivot column of H per row, or None
    basis: tuple  # n rows, k columns: column echelon with positive pivots

    @property
    def rank(self):
        return len(self.pivots) - self.pivots.count(None)

    def particular(self, b):
        """An integer x0 with rows @ x0 = b, or None when there is none."""
        b = core.int_vector(b, len(self.rows), "right-hand side")
        h = self.h
        w = [0] * len(self.u)
        for r, col in enumerate(self.pivots):
            res = b[r] - dot(h[r], w)
            if col is not None and res % h[r][col] == 0:
                w[col] = res // h[r][col]
            elif res or col is not None:  # a pivot that does not divide, or a residual left
                return None
        x0 = mat_vec(self.u, w)
        if mat_vec(self.rows, x0) != b:
            raise AssertionError("fiber parametrisation failed A x0 = b")
        return x0

    def points(self, b, limit=None):
        """The fiber {x in N^n : rows @ x = b} in lex order, at most ``limit`` points."""
        x0 = self.particular(b)
        if x0 is None:
            return []
        basis = self.basis
        ineqs = [(tuple(-v for v in row), x) for row, x in zip(basis, x0)]
        return [
            tuple(x + dot(row, z) for row, x in zip(basis, x0))
            for z in lattice_points_boxed(ineqs, len(self.u) - self.rank, limit)
        ]

    def first(self, b):
        """Lexicographically first fiber point, or None when the fiber is empty."""
        pts = self.points(b, limit=1)
        return pts[0] if pts else None


def factor(rows):
    """The :class:`Factorization` of {x in Z^n : rows @ x = b} for every b."""
    rows = tuple(tuple(r) for r in rows)
    n = len(rows[0]) if rows else 0
    h, u, pivots = column_hermite(rows, n)
    k = n - (len(pivots) - pivots.count(None))
    echelon = column_hermite([row[n - k :] for row in u], k)[0]
    sign = [1 if next(v for v in col if v) > 0 else -1 for col in zip(*echelon)]
    basis = tuple(tuple(s * v for s, v in zip(sign, row)) for row in echelon)
    if any(dot(r, c) for r in rows for c in zip(*basis)):
        raise AssertionError("fiber parametrisation failed A B = 0")
    return Factorization(rows, tuple(map(tuple, h)), tuple(map(tuple, u)), tuple(pivots), basis)

