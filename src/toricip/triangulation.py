"""Regular subdivisions of cone(A) and the linear-programming structure they encode.

A subset sigma of column indices is a face of the regular subdivision for cost
c exactly when some y satisfies y.a_j = c_j on sigma and y.a_j < c_j off it.
Maximal cells correspond to vertices of the dual polyhedron {y : yA <= c}, so
they are found by enumerating nonsingular d-subsets, solving for the unique y,
and recording its exact equality set.  A cost is generic when every maximal
cell is a d-simplex; the result carries that flag instead of raising, and
non-generic inputs are never silently perturbed.
"""

from functools import cached_property, lru_cache
from itertools import combinations

from . import linalg
from .core import IntMatrix, gcd_maximal_minors, kernel_lattice_basis
from .errors import Degenerate, NotAFace, OutsideCone, ParseError, Record, int_vector
from .fibers import Elimination, factor


class RegularSubdivision(Record):
    """The subdivision Delta_c: maximal cells, exact dual certificates, flags.

    A certificate y has y.a_j = c_j on its cell and y.a_j < c_j off it.  In a
    lex refinement a simplex carries the certificate of the cell it refines, so
    y.a_j = c_j holds on that whole cell, not only on the simplex.
    """

    matrix: IntMatrix
    cost: tuple
    maximal_faces: tuple  # sorted tuple of faces (0-based index tuples)
    certificates: tuple  # parallel tuple of rational y vectors
    is_triangulation: bool

    def certificate(self, face):
        face = tuple(sorted(face))
        for f, y in zip(self.maximal_faces, self.certificates):
            if f == face:
                return y
        raise NotAFace(f"{face} is not a maximal face")

    def faces(self):
        """All faces, by subset closure of the maximal ones (triangulations)."""
        out = set()
        for f in self.maximal_faces:
            for k in range(len(f) + 1):
                out.update(combinations(f, k))
        return sorted(out, key=lambda f: (len(f), f))

    def __contains__(self, face):
        face = set(face)
        return any(face <= set(f) for f in self.maximal_faces)

    @cached_property
    def cost_coordinates(self):
        """(T, B T, r T): kernel coordinates z = T w that put the cost first.

        B is the kernel basis of A and r = -cB the cost row of every group
        relaxation of (A, c).  T = [u_1 | E] is unimodular: r u_1 = g > 0 is
        the gcd of r, and E is the column-echelon basis of the kernel of r
        with positive pivots (both read off ``factor((r,))``), so
        r T = (g, 0, ..., 0) and w_1 = r.z / g.  For a fixed w_1,
        z = w_1 u_1 + E w' and lex order on w' is lex order on z (the echelon
        argument of :mod:`fibers`); so the lex-first lattice point in w is the
        (cost, lex z) minimum.  When r = 0, T = E.  Built on first use.
        """
        lat = kernel_lattice_basis(self.matrix)
        r = tuple(-linalg.dot(self.cost, col) for col in lat.columns())
        fac = factor((r,))
        cols = list(zip(*fac.basis))
        if fac.rank:
            sign = 1 if fac.h[0][0] > 0 else -1
            cols.insert(0, tuple(sign * row[0] for row in fac.u))
        cut = linalg.mat_vec(cols, r)
        if any(cut[1:]) or (fac.rank and cut[0] <= 0):
            raise AssertionError("cost-first coordinates failed r T = (g, 0, ..., 0)")
        t = tuple(zip(*cols))
        bt = tuple(linalg.mat_vec(cols, row) for row in lat.matrix)
        return t, bt, cut

    @cached_property
    def relaxation_elimination(self):
        """The :class:`~toricip.fibers.Elimination` of {(B T) w <= u, r T w <= 0}, built on
        first use over all n rows and the cut: every face shares it, its rows set to None.
        """
        _, bt, cut = self.cost_coordinates
        return Elimination(bt + (cut,), len(cut))

    @cached_property
    def simplex_inverses(self):
        """(sigma, adj A_sigma, sign of det A_sigma) per maximal simplex.

        A_sigma^{-1} b = adj A_sigma b / det A_sigma, so the signs of
        sign * (adj A_sigma b) are those of b's coordinates in sigma.  Built
        on first use and kept for the life of the subdivision.
        """
        out = []
        for sigma in self.maximal_faces:
            sub = self.matrix.columns(sigma)
            out.append((sigma, linalg.adjugate(sub), 1 if linalg.det_int(sub) > 0 else -1))
        return tuple(out)


def regular_subdivision(a: IntMatrix, cost) -> RegularSubdivision:
    """Compute Delta_c with exact certificates.

    Maximal cells are the equality sets of the vertices of {y : yA <= c};
    the subdivision is a triangulation iff they all have size d.  The cost is
    checked first, so the bounded cache behind this is keyed on its ints.
    """
    return _subdivision(a, int_vector(cost, a.n, "cost"))


@lru_cache(maxsize=256)
def _subdivision(a, cost):
    at = [list(a.column(j)) for j in range(a.n)]  # row j is a_j
    cells = {}
    for sigma in combinations(range(a.n), a.d):
        sub = [at[j] for j in sigma]
        if linalg.det_int(sub) == 0:
            continue
        y = linalg.solve_exact(sub, [cost[j] for j in sigma])
        if y is None:
            continue
        eq = []
        ok = True
        for j in range(a.n):
            v = linalg.dot(at[j], y)
            if v == cost[j]:
                eq.append(j)
            elif v > cost[j]:
                ok = False
                break
        if ok:
            cells.setdefault(tuple(eq), y)
    faces = sorted(cells, key=lambda f: (len(f), f))
    certs = tuple(cells[f] for f in faces)
    is_tri = all(len(f) == a.d for f in faces)
    return RegularSubdivision(a, cost, tuple(faces), certs, is_tri)


cached_subdivision = _subdivision  # the cache, for cache_info() and cache_clear()


def lex_refinement(delta: RegularSubdivision) -> RegularSubdivision:
    """The lex refinement of Delta_c: the triangulation for c + eps (1, t, t^2, ...).

    A nonsingular d-subset sigma of a cell C is a simplex when, for each j in
    C - sigma, the first nonzero entry of (A_sigma^{-1} a_j on sigma, -1 at j)
    is negative, so a_j lifts above sigma.  Columns off C stay strictly slack.
    """
    a = delta.matrix
    simplices = {}
    for cell, y in zip(delta.maximal_faces, delta.certificates):
        for sigma in combinations(cell, a.d):
            sub = a.columns(sigma)
            if linalg.det_int(sub) and all(
                    _lifted_above(sigma, linalg.solve_exact(sub, a.column(j)), j)
                    for j in cell if j not in sigma):
                simplices[sigma] = y
    faces = sorted(simplices)
    return RegularSubdivision(a, delta.cost, tuple(faces), tuple(map(simplices.get, faces)), True)


def _lifted_above(sigma, lam, j):
    return next(v for _, v in sorted([*zip(sigma, lam), (j, -1)]) if v) < 0


def optimal_face(delta: RegularSubdivision, b):
    """The unique smallest face tau of Delta with b in cone(A_tau).

    This is the support of an optimal solution of the linear relaxation for
    right-hand side b.  Raises OutsideCone when b is not in cone(A).  The face
    cones of a triangulation form a fan, so tau is the support of b's
    coordinates in any maximal simplex whose cone holds b, read off the
    simplex's integer inverse.  A subdivision with a non-simplicial cell
    raises Degenerate: there the smallest face need not be unique; refine it
    with :func:`lex_refinement` first.
    """
    b = int_vector(b, delta.matrix.d, "right-hand side")
    if not delta.is_triangulation:
        raise Degenerate("optimal_face needs a triangulation")
    for sigma, adj, sign in delta.simplex_inverses:
        lam = [sign * linalg.dot(row, b) for row in adj]
        if all(v >= 0 for v in lam):
            return tuple(j for j, v in zip(sigma, lam) if v)
    raise OutsideCone(f"{b} is outside cone(A)")


class UnimodularityReport(Record):
    indices: tuple  # (face, lattice index) pairs, sorted
    tdi: bool


def unimodularity_report(a: IntMatrix, delta: RegularSubdivision) -> UnimodularityReport:
    """Lattice index |det A_sigma| / gcd(maximal minors) per maximal simplex.

    The system yA <= c is totally dual integral iff every index is 1,
    i.e. the triangulation is unimodular (relative to the column lattice ZA).
    A non-simplicial cell has no one index: refine it first, or get Degenerate.
    """
    if delta.matrix != a:
        raise ParseError("the subdivision was built for another matrix")
    if not delta.is_triangulation:
        raise Degenerate("unimodularity_report needs a triangulation")
    g = gcd_maximal_minors(a)
    out = []
    for face in delta.maximal_faces:
        det = abs(linalg.det_int(a.columns(face)))
        out.append((face, det // g))
    return UnimodularityReport(tuple(out), all(ix == 1 for _, ix in out))

