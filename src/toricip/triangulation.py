"""Regular subdivisions of cone(A) and the linear-programming structure they encode.

A subset sigma of column indices is a face of the regular subdivision for cost
c exactly when some y satisfies y.a_j = c_j on sigma and y.a_j < c_j off it.
Maximal cells correspond to vertices of the dual polyhedron {y : yA <= c}.
They are found by a walk in integers: for c + eps (1, t, t^2, ...) the
polyhedron is simple, its vertices are the simplices of the lex refinement,
adjacent ones are one dual simplex pivot apart, and each simplex's cell is its
equality set under c itself.  The walk starts from the slack basis, which the
matrix's grading makes dual feasible, so it needs no LP of its own.  A cost is
generic when every maximal cell is a d-simplex; the result carries that flag
instead of raising, and non-generic inputs are never silently perturbed: the
perturbation only orders the walk.
The one walk also gives the lex refinement and each simplex's inverse, which
its tableau carries; the subdivision keeps both.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from . import linalg
from .core import IntMatrix, gcd_maximal_minors, kernel_lattice_basis
from .errors import Degenerate, OutsideCone, ParseError, Record, int_vector
from .fibers import Elimination, factor
from .linprog import _eliminate, _pivot


class RegularSubdivision(Record):
    """The subdivision Delta_c: maximal cells, exact dual certificates, flags.

    A certificate y has y.a_j = c_j on its cell and y.a_j < c_j off it.  In a
    lex refinement a simplex carries the certificate of the cell it refines, so
    y.a_j = c_j holds on that whole cell, not only on the simplex.

    ``simplex_inverses`` holds (sigma, rows) for each simplex sigma of the lex
    refinement, sorted by sigma, as the walk of :func:`_lex_feasible_bases`
    leaves them: rows[t] is a positive multiple of row t of A_sigma^{-1}, so
    the signs of rows[t] . b are those of b's coordinates in sigma.
    ``simplex_cells`` holds the cell of this subdivision that holds each
    sigma, in the same order.  On a triangulation the simplices are its
    maximal faces.  Neither is compared.
    """

    matrix: IntMatrix
    cost: tuple
    maximal_faces: tuple  # sorted tuple of faces (0-based index tuples)
    certificates: tuple  # parallel tuple of rational y vectors
    is_triangulation: bool
    simplex_inverses: tuple  # (sigma, rows) per simplex of the lex refinement
    simplex_cells: tuple  # parallel tuple: the cell holding each sigma
    _uncompared = ("simplex_inverses", "simplex_cells")

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


def regular_subdivision(a: IntMatrix, cost) -> RegularSubdivision:
    """Compute Delta_c with exact certificates.

    Maximal cells are the equality sets of the vertices of {y : yA <= c};
    the subdivision is a triangulation iff they all have size d.  They are
    found by walking the simplices of :func:`lex_refinement` (see
    :func:`_lex_feasible_bases`), not by scanning all C(n, d) bases.  The cost
    is checked first, so the bounded cache behind this is keyed on its ints.
    """
    return _subdivision(a, int_vector(cost, a.n, "cost"))


@lru_cache(maxsize=256)
def _subdivision(a, cost):
    """Each visited basis's cell is its columns with zero reduced cost.

    The cost row is s (c - yA | -y | 1) for some s > 0, so a new cell's
    certificate is read off it; Fractions are built only for kept cells.
    Every simplex keeps its inverse rows and its cell.
    """
    n = a.n
    cells, simplices = {}, []
    for sigma, rows, z in _lex_feasible_bases(a, cost):
        cell = tuple(j for j in range(n) if not z[j])
        if cell not in cells:
            cells[cell] = tuple(Fraction(-v, z[-1]) for v in z[n:-1])
        simplices.append(((sigma, rows), cell))
    simplices.sort()  # by sigma: the walk visits each basis once
    faces = sorted(cells, key=lambda f: (len(f), f))
    certs = tuple(cells[f] for f in faces)
    is_tri = all(len(f) == a.d for f in faces)
    return RegularSubdivision(a, cost, tuple(faces), certs, is_tri, *zip(*simplices))


def _lex_feasible_bases(a, cost):
    """Yield (sigma, rows, cost row) for each simplex sigma of the lex refinement of Delta_c.

    These are the bases whose reduced costs are lexicographically positive
    for the perturbed cost c + eps (1, t, t^2, ...): the vertices of a simple
    polyhedron, so every basis is reached from one start by pivots across
    edges.  The integer tableau of :mod:`linprog` runs over [A | I | 0], so
    the cost row is s (c - yA | -y | 1) for some s > 0.  The walk starts at
    the slack basis with y = min(0, min c) g for the grading g: g . a_j >= 1,
    so c - yA >= 0, and each slack leaves through the ratio test that walks
    on.  A slack row's sign is free, as the walk carries no right-hand side.
    The identity block carries A_sigma^{-1}: sigma comes sorted, and rows[t],
    the block's row of column sigma_t, is row t of A_sigma^{-1} times
    rows[t] . a_{sigma_t} > 0.  The walk is depth-first and pivots back on
    return, so a pending basis holds no tableau of its own.
    """
    n, d = a.n, a.d
    rows = [[*r, *(int(i == k) for k in range(d)), 0] for i, r in enumerate(a.entries)]
    basis = list(range(n, n + d))
    y = [min((*cost, 0)) * g for g in a.grading]
    z = [*(c - linalg.dot(y, a.column(j)) for j, c in enumerate(cost)), *(-v for v in y), 1]
    for i in range(d):
        if min(rows[i][:n]) >= 0:  # a row with no negative entry leaves on its other side
            rows[i] = [-v for v in rows[i]]
        j = _entering(rows, basis, z, i, n)
        z = _eliminate(z, _pivot(rows, basis, i, j), j)
    mask = sum(1 << b for b in basis)
    seen = {mask}
    yield (*_inverse_rows(rows, basis, n), z)
    tried, undo = [0], []  # rows tried per basis on the path; pivots to undo
    while tried:
        k = tried[-1]
        if k == d:
            tried.pop()
            if undo:
                i, j = undo.pop()
                mask ^= 1 << basis[i] | 1 << j
                z = _eliminate(z, _pivot(rows, basis, i, j), j)
            continue
        tried[-1] = k + 1
        j = _entering(rows, basis, z, k, n)
        if j is None:  # an unbounded edge
            continue
        step = 1 << basis[k] | 1 << j
        if mask ^ step in seen:
            continue
        mask ^= step
        seen.add(mask)
        undo.append((k, basis[k]))
        z = _eliminate(z, _pivot(rows, basis, k, j), j)
        yield (*_inverse_rows(rows, basis, n), z)
        tried.append(0)


def _inverse_rows(rows, basis, n):
    """(sigma, rows): the basis sorted, and the identity block's rows in sigma's order."""
    order = sorted(range(len(basis)), key=basis.__getitem__)
    sigma = tuple(basis[i] for i in order)
    return sigma, tuple(tuple(rows[i][n:n + len(basis)]) for i in order)


def _entering(rows, basis, z, k, n):
    """The column that enters when row k's basic column leaves; None on an unbounded edge.

    A lexicographic dual ratio test over the columns with negative entries in
    row k.  Ties in z_j / -T_kj are broken column by column from 0 by the
    eps-coefficients of the perturbed reduced costs divided by -T_kj: at a
    basic column sigma_l that is T_lj / T_kj, at a nonbasic one it is
    positive for that column alone, so that column loses.
    """
    row = rows[k]
    tied = _least_ratios([j for j in range(n) if row[j] < 0], z, row)
    if len(tied) < 2:
        return tied[0] if tied else None
    where = {b: l for l, b in enumerate(basis)}
    for i in range(n):
        l = where.get(i)
        if l is None:
            if i in tied:
                tied.remove(i)
        elif l != k:
            tied = _least_ratios(tied, [-v for v in rows[l]], row)
        if len(tied) == 1:
            break
    return tied[0]


def _least_ratios(cands, num, den):
    """The j in ``cands`` with the least num_j / -den_j; every den_j < 0."""
    out = []
    for j in cands:
        if out:
            diff = num[j] * den[out[0]] - num[out[0]] * den[j]
            if diff < 0:
                continue
            if diff:
                out = []
        out.append(j)
    return out


cached_subdivision = _subdivision  # the cache, for cache_info() and cache_clear()


def lex_refinement(delta: RegularSubdivision) -> RegularSubdivision:
    """The lex refinement of Delta_c: the triangulation for c + eps (1, t, t^2, ...).

    Its simplices are the ones ``delta`` keeps from its walk (see
    :func:`_lex_feasible_bases`), with their inverse rows.  Each carries the
    certificate of the cell it refines: the basis's columns with zero reduced
    cost under c.  A triangulation, a lex refinement among them, is its own
    refinement.
    """
    if delta.is_triangulation:
        return delta
    certificates = dict(zip(delta.maximal_faces, delta.certificates))
    simplices = tuple(sigma for sigma, _ in delta.simplex_inverses)
    certs = tuple(map(certificates.get, delta.simplex_cells))
    return RegularSubdivision(delta.matrix, delta.cost, simplices, certs, True,
                              delta.simplex_inverses, simplices)


def optimal_face(delta: RegularSubdivision, b):
    """The unique smallest face tau of Delta with b in cone(A_tau).

    This is the support of an optimal solution of the linear relaxation for
    right-hand side b.  Raises OutsideCone when b is not in cone(A).  The face
    cones of a triangulation form a fan, so tau is the support of b's
    coordinates in any maximal simplex whose cone holds b, read off the signs
    of the simplex's scaled inverse rows.  A subdivision with a non-simplicial
    cell raises Degenerate: there the smallest face need not be unique; refine
    it with :func:`lex_refinement` first.
    """
    b = int_vector(b, delta.matrix.d, "right-hand side")
    if not delta.is_triangulation:
        raise Degenerate("optimal_face needs a triangulation")
    for sigma, rows in delta.simplex_inverses:
        lam = linalg.mat_vec(rows, b)
        if min(lam) >= 0:
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

