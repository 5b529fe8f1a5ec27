"""Integer coefficient matrices and their kernel lattices.

The central object is :class:`IntMatrix`, the d x n integer matrix whose
columns generate the cone and the semigroup behind a family of integer
programs.  Construction enforces the structural assumptions the whole theory
rests on: full row rank and a kernel meeting the nonnegative orthant only at
the origin (which also forces the cone to be pointed and every program in the
family to be bounded).
"""

from functools import lru_cache
from math import prod

from . import linalg
from .errors import BadIndex, RankDeficient, Record, UnboundedFamily, _integer
from .fibers import Factorization, factor
from .linprog import nonneg_feasible


class IntMatrix(Record):
    """A d x n integer matrix of full row rank with pointed column cone."""

    entries: tuple

    def __init__(self, entries):
        self.__post_init__(entries)  # perfbench/tracer.py times the validation by this name

    def __post_init__(self, entries):
        rows = tuple(tuple(_integer(x) for x in row) for row in entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise RankDeficient("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise RankDeficient("ragged rows")
        if linalg.rank(rows) < len(rows):
            raise RankDeficient(f"rank below {len(rows)}")
        if kernel_meets_orthant(rows):
            raise UnboundedFamily("kernel of A meets the nonnegative orthant")

    @property
    def d(self):
        return len(self.entries)

    @property
    def n(self):
        return len(self.entries[0])

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self, idx):
        """Submatrix A_sigma as rows, for 0-based column indices."""
        return tuple(tuple(row[j] for j in idx) for row in self.entries)

    def apply(self, x):
        return linalg.mat_vec(self.entries, x)

    def __str__(self):
        head = f"{self.d} {self.n}"
        return "\n".join([head] + [" ".join(str(v) for v in r) for r in self.entries])


def kernel_meets_orthant(rows):
    """Whether rows x = 0 has a solution x >= 0, x != 0 (scaled to sum x = 1)."""
    return nonneg_feasible([*rows, [1] * len(rows[0])], [0] * len(rows) + [1])


class LatticeBasis(Record):
    """n x (n-d) integer basis of the saturated kernel lattice of A.

    ``fibers`` is the column-Hermite factorization of A the basis was read
    from; it solves A x = b over the fibers of A for every b.
    """

    matrix: tuple  # n rows, n-d columns
    fibers: Factorization
    _uncompared = ("fibers",)

    @property
    def corank(self):
        return len(self.matrix[0]) if self.matrix and self.matrix[0] else 0

    def columns(self):
        return list(zip(*self.matrix))

    def apply(self, z):
        """B z, as a length-n integer vector."""
        return linalg.mat_vec(self.matrix, z)


@lru_cache(maxsize=256)
def kernel_lattice_basis(a: IntMatrix) -> LatticeBasis:
    """Basis B of the saturated lattice {x in Z^n : A x = 0}, A B = 0.

    The basis comes from a unimodular column reduction of A, so its column
    lattice is saturated by construction; both facts are re-verified before
    returning.  A B = 0 entrywise, and the gcd of the k x k minors of B is 1:
    every pivot of the column-Hermite form of B^T is +-1, the reading
    :func:`gcd_maximal_minors` makes of A.  Built once per matrix and kept in
    a bounded cache.
    """
    fac = factor(a.entries)
    if fac.rank < a.d:
        raise RankDeficient("rank below row count")
    bmat = tuple(row[fac.rank :] for row in fac.u)
    cols = list(zip(*bmat))
    for col in cols:
        if any(v != 0 for v in a.apply(col)):
            raise AssertionError("kernel basis failed A B = 0")
    h, _, pivots = linalg.column_hermite(cols, a.n)
    if None in pivots or any(abs(row[c]) != 1 for row, c in zip(h, pivots)):
        raise AssertionError("kernel basis not saturated")
    return LatticeBasis(bmat, fac)


cached_kernel_basis = kernel_lattice_basis  # the cache, for cache_info() and cache_clear()


def gcd_maximal_minors(a: IntMatrix) -> int:
    """gcd of the absolute values of all d x d minors of A (positive).

    A U = [H | 0] with U unimodular keeps that gcd (Cauchy-Binet), and the
    only nonzero maximal minor of [H | 0] is det H, the product of the
    pivots of the lower-triangular H: read off the cached kernel basis.
    """
    fac = kernel_lattice_basis(a).fibers
    return abs(prod(h[c] for h, c in zip(fac.h, fac.pivots)))


def face_determinant(a: IntMatrix, sigma) -> int:
    """|det(A_sigma)| for a 0-based column set sigma with |sigma| = d."""
    sigma = tuple(sorted(sigma))
    if len(sigma) != a.d or len(set(sigma)) != len(sigma):
        raise BadIndex(f"need {a.d} distinct column indices")
    if any(j < 0 or j >= a.n for j in sigma):
        raise BadIndex("column index out of range")
    return abs(linalg.det_int(a.columns(sigma)))
