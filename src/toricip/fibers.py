"""Exact lattice-point enumeration: one sweep for inequality systems and fibers.

:class:`Elimination`, an integer Fourier-Motzkin elimination followed by a
lex sweep (Schrijver, *Theory of Linear and Integer Programming*, 12.2), is
the library's only enumerator of {z in Z^k : s . z <= o}.  Which normals the
elimination derives depends on the normals s alone, so one plan serves every
offset vector o; :func:`lattice_points_boxed` is its one-off form.  A fiber
{x in N^n : A x = b} is {x0 + B z : -B z <= x0}: one column-Hermite
reduction of A gives an integer x0 with A x0 = b (or shows there is none),
and a second brings the kernel basis to column-echelon form B with positive
pivots.  Then the coordinates of x before the pivot row of z_2 depend on z_1
alone, and the pivot row of z_1 grows strictly with it; so on for z_2, z_3,
...  Lex order on z is lex order on x, so the sweep yields the fiber in lex
order.  The reductions and the elimination of -B depend on A alone:
:func:`factor` does them once, and its :class:`Factorization` answers every
b.  An infinite fiber (the kernel of A meets the nonnegative orthant;
IntMatrix rules that out) raises Unbounded.
"""

import math
from operator import add

from .errors import ParseError, Record, Unbounded, int_vector
from .linalg import column_hermite, dot, mat_vec


class Elimination:
    """Integer Fourier-Motzkin elimination of {s . z <= o} for fixed normals s.

    Level k (0-based) holds the normals over z_1..z_(k+1).  The last level is
    the input and each level below eliminates the next coordinate by pairing
    every normal positive in it with every normal negative in it; each
    normal is divided by the gcd of its coefficients, with the offset
    floored, which keeps every integer point.  The normals of a level never
    depend on the offsets, so the plan keeps, per normal, its sources (an
    input row, a normal passed down, or a pair i, j with multipliers and
    gcd), and an offset vector costs one pass taking the least
    floor((m_i o_i + m_j o_j) / g) per normal, then the lex sweep.  An offset
    of None drops its row and every combination built from it.  The plan is
    made on first use.
    """

    def __init__(self, normals, dim):
        self.normals, self.dim, self._steps = normals, dim, None

    def _plan(self):
        """Per level from the top: its size and (dst, i, j, m_i, m_j, g) sources; its bound rows."""
        index, sources = {}, []
        for i, s in enumerate(self.normals):
            _add(index, sources, tuple(s), i, i, 1, 0)
        steps, bounds = [(len(index), sources)], []
        for k in range(self.dim - 1, -1, -1):
            upper, lower, below, sources = [], [], {}, []
            for i, s in enumerate(index):
                c = s[k]
                if c > 0:
                    upper.append((i, s[:k], c))
                elif c < 0:
                    lower.append((i, s[:k], c))
                elif k:
                    sources.append((below.setdefault(s[:k], len(below)), i, i, 1, 0, 1))
            bounds.append((upper, lower))
            if not k:
                self._zero = index.get((0,))
                break
            for i, s, a in upper:
                for j, t, b in lower:
                    _add(below, sources, tuple(a * y - b * x for x, y in zip(s, t)), i, j, -b, a)
            steps.append((len(below), sources))
            index = below
        self._steps, self._bounds = steps, bounds[::-1]

    @property
    def bounded(self):
        """Whether {s . z <= 0} is {0}: every level bounds its coordinate on both sides.

        The level over z_1..z_k describes the projection of the cone onto them.
        """
        if self._steps is None:
            self._plan()
        return all(upper and lower for upper, lower in self._bounds)

    def points(self, offsets, limit=None):
        """Integer points of {s . z <= o} in ascending lex order, by one exact sweep.

        z_1, ..., z_dim are swept in turn, each between the closed-form
        integer bounds its level gives once the earlier coordinates are
        fixed.  ``limit`` stops the sweep once that many points are found;
        0 finds none, and a negative or non-int limit is a ParseError.
        Returns [] when a constant row is violated and raises Unbounded when
        a coordinate the sweep reaches has no bound on one side.
        """
        dim = self.dim
        if limit is not None and (type(limit) is not int or limit < 1):
            if type(limit) is not int or limit < 0:
                raise ParseError(f"limit {limit!r} is not a nonnegative int")
            return []
        if dim == 0:
            return [()] if all(o is None or o >= 0 for o in offsets) else []
        if self._steps is None:
            self._plan()
        levels = []
        for size, sources in self._steps:
            cur = [None] * size
            for dst, i, j, mi, mj, g in sources:
                oi, oj = offsets[i], offsets[j]
                if oi is not None and oj is not None:
                    v = (mi * oi + mj * oj) // g
                    old = cur[dst]
                    if old is None or v < old:
                        cur[dst] = v
            levels.append(cur)
            offsets = cur
        if self._zero is not None and (o := offsets[self._zero]) is not None and o < 0:
            return []
        bounds = [([(p, c, o) for d, p, c in upper if (o := offs[d]) is not None],
                   [(p, c, o) for d, p, c in lower if (o := offs[d]) is not None])
                  for offs, (upper, lower) in zip(reversed(levels), self._bounds)]
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


def _add(level, sources, s, i, j, mi, mj):
    """File s under its normal (s divided by its gcd) and record its source."""
    g = math.gcd(*s) or 1
    if g > 1:
        s = tuple(c // g for c in s)
    sources.append((level.setdefault(s, len(level)), i, j, mi, mj, g))


def lattice_points_boxed(rows, dim, limit=None):
    """Integer points of {s . z <= o} in ascending lex order: a one-off :class:`Elimination`."""
    return Elimination([s for s, _ in rows], dim).points([o for _, o in rows], limit)


class Factorization(Record):
    """rows U = [H | 0] with U unimodular, an echelon kernel basis B, and the
    elimination of {-B z <= x0}.

    Everything here depends on the rows alone, so one factorization serves
    every right-hand side: each b then costs a forward substitution through
    H, the check rows @ x0 = b, one offset pass and the sweep over z.
    """

    rows: tuple
    h: tuple
    u: tuple
    pivots: tuple  # pivot column of H per row, or None
    basis: tuple  # n rows, k columns: column echelon with positive pivots
    elimination: Elimination  # of the normals -B
    _uncompared = ("elimination",)

    @property
    def rank(self):
        return len(self.pivots) - self.pivots.count(None)

    def particular(self, b):
        """An integer x0 with rows @ x0 = b, or None when there is none."""
        b = int_vector(b, len(self.rows), "right-hand side")
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
        return [tuple(map(add, x0, mat_vec(basis, z))) for z in self.elimination.points(x0, limit)]

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
    plan = Elimination([[-v for v in row] for row in basis], k)
    return Factorization(rows, tuple(map(tuple, h)), tuple(map(tuple, u)), tuple(pivots), basis, plan)

