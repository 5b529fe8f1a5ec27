"""Integer coefficient matrices and their kernel lattices.

The central object is :class:`IntMatrix`, the d x n integer matrix whose
columns generate the cone and the semigroup behind a family of integer
programs.  Construction enforces the structural assumptions the whole theory
rests on: full row rank and a kernel meeting the nonnegative orthant only at
the origin (which also forces the cone to be pointed and every program in the
family to be bounded).  By Gordan's alternative the second holds iff some y
has y . a_j >= 1 for every column; validation finds one with a single phase-1
LP (:func:`grading`) and keeps it on the matrix.  Validation reads the rank
off the column-Hermite factorization A U = [H | 0] and keeps that too: the
kernel basis, the lattice index and every fiber are read from it.
"""

from functools import lru_cache
from math import prod

from . import linalg
from .errors import BadIndex, RankDeficient, Record, UnboundedFamily, _integer
from .fibers import Factorization, factor
from .linprog import gordan_ray


class IntMatrix(Record):
    """A d x n integer matrix of full row rank with pointed column cone.

    ``grading`` is the integer y with y . a_j >= 1 for every column that
    validation found, and ``fibers`` the :class:`~toricip.fibers.Factorization`
    whose pivot count gave the rank; it solves A x = b over the fibers of A
    for every b.  Neither is compared.
    """

    entries: tuple
    grading: tuple
    fibers: Factorization
    _uncompared = ("grading", "fibers")

    def __init__(self, entries):
        self.__post_init__(entries)  # perfbench/tracer.py times the validation by this name

    def __post_init__(self, entries):
        rows = tuple(tuple(_integer(x) for x in row) for row in entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise RankDeficient("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise RankDeficient("ragged rows")
        fac = factor(rows)
        if fac.rank < len(rows):
            raise RankDeficient(f"rank below {len(rows)}")
        y = grading(tuple(zip(*rows)))
        if y is None:
            raise UnboundedFamily("kernel of A meets the nonnegative orthant")
        object.__setattr__(self, "grading", y)
        object.__setattr__(self, "fibers", fac)

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


def grading(cols):
    """An integer y with y . g >= 1 for every column g, or None when there is none.

    It exists iff cone(cols) is pointed (Gordan duality).  y is the Farkas ray
    of phase 1 on {x >= 0 : sum x_j g_j = 0, 1 . x = 1}, read off its final
    cost row (:func:`linprog.gordan_ray`), and checked here.
    """
    y = gordan_ray(cols)
    if y is not None and any(linalg.dot(y, g) < 1 for g in cols):
        raise AssertionError("the Farkas ray of phase 1 is not a grading")
    return y


class LatticeBasis(Record):
    """n x (n-d) integer basis of the saturated kernel lattice of A."""

    matrix: tuple  # n rows, n-d columns

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

    B is the trailing n - d columns of the unimodular U in the factorization
    A U = [H | 0] that validation kept, so its column lattice is saturated by
    construction; both facts are re-verified before returning.  A B = 0
    entrywise, and the gcd of the k x k minors of B is 1: every pivot of the
    column-Hermite form of B^T is +-1, the reading :func:`gcd_maximal_minors`
    makes of A.  Built once per matrix and kept in a bounded cache.
    """
    bmat = tuple(row[a.d :] for row in a.fibers.u)
    cols = list(zip(*bmat))
    for col in cols:
        if any(v != 0 for v in a.apply(col)):
            raise AssertionError("kernel basis failed A B = 0")
    h, _, pivots = linalg.column_hermite(cols, a.n)
    if None in pivots or any(abs(row[c]) != 1 for row, c in zip(h, pivots)):
        raise AssertionError("kernel basis not saturated")
    return LatticeBasis(bmat)


cached_kernel_basis = kernel_lattice_basis  # the cache, for cache_info() and cache_clear()


def gcd_maximal_minors(a: IntMatrix) -> int:
    """gcd of the absolute values of all d x d minors of A (positive).

    A U = [H | 0] with U unimodular keeps that gcd (Cauchy-Binet), and the
    only nonzero maximal minor of [H | 0] is det H, the product of the
    pivots of the lower-triangular H: read off the factorization A keeps.
    """
    fac = a.fibers
    return abs(prod(h[c] for h, c in zip(fac.h, fac.pivots)))


def face_determinant(a: IntMatrix, sigma) -> int:
    """|det(A_sigma)| for a 0-based column set sigma with |sigma| = d."""
    sigma = tuple(sorted(sigma))
    if len(sigma) != a.d or len(set(sigma)) != len(sigma):
        raise BadIndex(f"need {a.d} distinct column indices")
    if any(j < 0 or j >= a.n for j in sigma):
        raise BadIndex("column index out of range")
    return abs(linalg.det_int(a.columns(sigma)))
