"""Hilbert bases of pointed cones, normality tests, and cost constructions.

A matrix is normal when its columns generate every lattice point of their
cone; Delta-normal when the columns inside each maximal cell of a
triangulation form a Hilbert basis of that cell; supernormal when the same
holds over every column-subset cone.  Each test reads a Hilbert basis: the
columns inside a pointed cone generate its lattice points exactly when every
element of its minimal Hilbert basis is a column, since an element is no sum
of two nonzero lattice points of the cone.  Delta-normality over a regular
triangulation yields, constructively, a generic cost whose family is solved
entirely by Gomory relaxations; :func:`gomory_cost` carries out that
construction and re-verifies its own postcondition before returning.

Hilbert-basis candidates are the parallelepiped points of the simplices of one
triangulation, one per coset read off a column-Hermite form; minimality is tested in
grading order, and cone membership by the signs of the simplices' inverse rows, which
the triangulation's walk leaves scaled by positive factors.
"""

from itertools import combinations, product
from math import prod

from .core import IntMatrix
from .errors import (Degenerate, NotDeltaNormal, NotPointed, NotRegular, ParseError, Record,
                     UnboundedFamily, _face, int_vector)
from .linalg import clear_denominators, column_hermite, dot
from .linprog import OPTIMAL, solve_lp
from .triangulation import _lex_feasible_bases, regular_subdivision


class HilbertBasis(Record):
    elements: tuple  # sorted integer vectors
    generators: tuple


def _parallelepiped_points(gens, coords, rows):
    """Lattice points of {sum lam_t g_t : 0 <= lam_t < 1}, sorted.

    The r generators form a nonsingular minor M on the coordinates I =
    ``coords``; ``rows[t]`` is a positive multiple of row t of M^{-1}, as
    ``RegularSubdivision.simplex_inverses`` holds them, and the multiple is
    rows[t] . (g_t on I).  A point x is fixed by x_I = M lam, and the points'
    x_I are one per coset of Z^r / M Z^r, represented by the vectors
    0 <= y_t < |h_tt| of M's lower-triangular column-Hermite form H, whose
    pivots multiply to |det M|.  The point of y has lam = (adj y mod |det M|)
    / |det M|, where adj = |det M| M^{-1} is integral; when r < d it is a
    lattice point only when it is also integral off I.
    """
    r = len(gens)
    h, _, _ = column_hermite([[g[i] for g in gens] for i in coords], r)
    sizes = [abs(h[t][t]) for t in range(r)]
    size = prod(sizes)
    adj = []
    for g, row in zip(gens, rows):
        scale = dot(row, [g[i] for i in coords])
        adj.append([size * v // scale for v in row])
    points = []
    for y in product(*map(range, sizes)):
        lam = [dot(row, y) % size for row in adj]
        x = [dot(row, lam) for row in zip(*gens)]
        if all(v % size == 0 for v in x):
            points.append(tuple(v // size for v in x))
    return sorted(points)


def hilbert_basis(generators) -> HilbertBasis:
    """The minimal Hilbert basis of cone(generators) in Z^d.

    Candidates are the generators and the parallelepiped points of the
    simplices of one triangulation, which generate the cone's point semigroup.
    In increasing degree y . x_I, for the grading y that validating the
    generators on their pivot rows I finds, x is kept iff x - h leaves the
    cone for every h kept so far: a reducible x is h + z with h a
    Hilbert-basis element of lower degree.  ``generators`` is any iterable of
    vectors.  NotPointed when no grading exists (Gordan duality): the cone
    contains a line.  The validation is the call's one LP.
    """
    gens = [tuple(g) for g in generators]
    gens = [v for v in (int_vector(g, len(gens[0]), "generator") for g in gens) if any(v)]
    if not gens:
        return HilbertBasis((), ())
    # on their pivot rows the generators keep their rank and their cone, linearly: m has
    # full row rank, its validation finds its grading or proves the cone holds a line, and
    # y = 0 is the only vertex of {y : y m <= 0}, so cost 0 gives one cell, all of m; the
    # walk starts at y = 0 and visits the simplices of its lex refinement
    keep = [i for i, p in enumerate(column_hermite(zip(*gens), len(gens))[2]) if p is not None]
    try:
        m = IntMatrix([[g[i] for g in gens] for i in keep])
    except UnboundedFamily:
        raise NotPointed("cone contains a line") from None
    cells = [(sigma, rows) for sigma, rows, _ in _lex_feasible_bases(m, (0,) * m.n)]
    cands = set(gens)
    for sigma, rows in cells:
        cands.update(_parallelepiped_points([gens[j] for j in sigma], keep, rows))
    cands.discard(tuple([0] * len(gens[0])))
    minimal = []
    for x in sorted(cands, key=lambda x: (dot(m.grading, [x[i] for i in keep]), x)):
        # x - h is in the cone iff its coordinates in some simplex are all >= 0
        diffs = ([x[i] - h[i] for i in keep] for h in minimal)
        if not any(all(dot(row, v) >= 0 for row in rows) for v in diffs for _, rows in cells):
            minimal.append(x)
    return HilbertBasis(tuple(sorted(minimal)), tuple(gens))


class NormalityReport(Record):
    normal: bool
    witness: tuple | None
    delta_normal: bool | None
    per_face: tuple  # (face, bool) pairs when a triangulation was supplied
    supernormal: bool | None


def _first_missing(a: IntMatrix, gens):
    """The first Hilbert-basis element of cone(gens) that is not a column of A, or None.

    None says that the columns of A inside the cone generate its lattice
    points (see the module docstring).
    """
    cols = {a.column(j) for j in range(a.n)}
    return next((h for h in hilbert_basis(gens).elements if h not in cols), None)


def normality_report(a: IntMatrix, delta=None, check_super=False) -> NormalityReport:
    """Normality of A, per-cell Delta-normality, optional supernormality.

    A is normal when every element of the minimal Hilbert basis of cone(A)
    is a column of A, and the witness is the first element, in sorted order,
    that is not: such an element is no sum of two nonzero lattice points of
    the cone, so no combination of columns reaches it.  A cell or a column
    subset is tested the same way against every column of A, which tests
    the columns of A inside its cone.  ``delta`` is a subdivision of A or a
    list of faces, each of distinct indices in 0..n-1.
    """
    cols = [a.column(j) for j in range(a.n)]
    faces = None
    if delta is not None:
        if getattr(delta, "matrix", a) != a:
            raise ParseError("the subdivision was built for another matrix")
        faces = (delta.maximal_faces if hasattr(delta, "maximal_faces")
                 else tuple(_face(f, a.n) for f in delta))
    witness = _first_missing(a, cols)
    per_face = [(sigma, _first_missing(a, [cols[j] for j in sigma]) is None)
                for sigma in faces or ()]
    delta_normal = None if faces is None else all(flag for _, flag in per_face)
    supernormal = None
    if check_super:  # one cone per distinct set of columns, the smaller sets first
        distinct = list(dict.fromkeys(cols))
        supernormal = all(_first_missing(a, sub) is None for size in range(1, len(distinct) + 1)
                          for sub in combinations(distinct, size))
    return NormalityReport(witness is None, witness, delta_normal, tuple(per_face), supernormal)


class GomoryCostResult(Record):
    cost: tuple
    pairs: tuple
    residue_roots: tuple  # (face, roots) pairs from the construction


def _certificate_cost(a: IntMatrix, faces):
    """Some integer cost whose subdivision realizes the given maximal cells.

    Solved as one LP over a candidate cost and one dual vector per cell, with
    a uniform strictness margin; NotRegular when no margin is positive.
    """
    n = a.n
    d = a.d
    faces = [tuple(sorted(f)) for f in faces]
    k = len(faces)
    nv = n + d * k + 1  # c, y_1..y_k, t
    a_ub = []
    b_ub = []
    a_eq = []
    b_eq = []
    for fi, face in enumerate(faces):
        for j in range(n):
            row = [0] * nv
            for i in range(d):
                row[n + d * fi + i] = a.entries[i][j]
            if j in face:
                row[j] = -1
                a_eq.append(row)
                b_eq.append(0)
            else:
                row[j] = -1
                row[-1] = 1
                a_ub.append(row)
                b_ub.append(0)
    for j in range(n):
        box = [0] * nv
        box[j] = 1
        a_ub.append(box)
        b_ub.append(1)
        box = [0] * nv
        box[j] = -1
        a_ub.append(box)
        b_ub.append(1)
    cap = [0] * nv
    cap[-1] = 1
    a_ub.append(cap)
    b_ub.append(1)
    obj = [0] * nv
    obj[-1] = 1
    res = solve_lp(obj, a_ub, b_ub, a_eq, b_eq, maximize=True)
    if res.status != OPTIMAL or res.value <= 0:
        raise NotRegular("no cost vector certifies the triangulation")
    return tuple(clear_denominators(res.x[:n])[0])


def _lift(sub):
    """The columns lifted onto the cells of ``sub``: h(a_j) for the cost c of ``sub``.

    h(x) = min{c . lam : A lam = x, lam >= 0} is piecewise linear, y_sigma . x
    on the cone of each cell sigma.  By LP duality it is max{y . x : y A <= c},
    reached at a vertex of that polyhedron, and the vertices are the cells'
    certificates: so h(a_j) is the largest y . a_j over them, which is c_j
    when column j lies in a cell.
    """
    a = sub.matrix
    return [max(dot(a.column(j), y) for y in sub.certificates) for j in range(a.n)]


def gomory_cost(a: IntMatrix, faces) -> GomoryCostResult:
    """A generic integer cost making the triangulation a Gomory family.

    Follows the constructive route: lift the columns onto the cells of a
    certifying cost (:func:`_lift`, one dot product per column and
    certificate), then pull the ray generators down.  The faces are index
    tuples, each of distinct indices in 0..n-1.  The expected pairs
    are the per-cell residue optima under the symbolic two-level order
    (lifted cost, then ray deficit, then lex); an integer cost realizing them
    is found by scaling and certified by re-running the whole pipeline.
    """
    # the pipeline modules load here, so the Hilbert-basis commands skip them
    from .stdpairs import StandardPair
    faces = tuple(_face(f, a.n) for f in faces)
    if any(len(f) > a.d for f in faces):
        raise Degenerate("gomory_cost needs the cells of a triangulation")
    cprime = _certificate_cost(a, faces)
    sub0 = regular_subdivision(a, cprime)
    if set(sub0.maximal_faces) != set(faces):
        raise NotRegular(
            f"certificate induces {sub0.maximal_faces}, not the requested cells"
        )
    if any(_first_missing(a, [a.column(j) for j in sigma]) for sigma in sub0.maximal_faces):
        raise NotDeltaNormal("some cell's columns are not a Hilbert basis")
    rays = sorted({j for f in faces for j in f})
    c0 = tuple(clear_denominators(_lift(sub0))[0])
    omega = tuple(-1 if j in rays else 0 for j in range(a.n))

    # residue optima per cell under the symbolic order (c0, omega, lex)
    def sym_key(x):
        return (dot(c0, x), -sum(x[j] for j in rays), x)

    fac = a.fibers
    inverses = dict(sub0.simplex_inverses)
    residue_roots = []
    expected = set()
    for face in faces:
        gens = [a.column(j) for j in face]
        roots = []
        for b in _parallelepiped_points(gens, range(a.d), inverses[face]):
            opt = min(fac.points(b), key=sym_key, default=None)
            if opt is None:
                raise NotDeltaNormal(f"residue {b} has an empty fiber")
            root = tuple(0 if j in set(face) else opt[j] for j in range(a.n))
            roots.append(root)
            expected.add(StandardPair(root, face))
        residue_roots.append((face, tuple(sorted(roots))))

    scale = 1
    for _ in range(24):
        cand = tuple(scale * cv + ov for cv, ov in zip(c0, omega))
        if _certify(a, cand, faces, expected):
            pairs = tuple(sorted(expected, key=lambda p: (p.root, p.face)))
            return GomoryCostResult(cand, pairs, tuple(residue_roots))
        scale *= 4
    raise NotRegular("no scaling realized the symbolic construction")


def _certify(a, cand, faces, expected):
    from .groebner import CostOrder, toric_groebner
    from .stdpairs import initial_ideal, is_gomory_family, standard_pair_decomposition
    sub = regular_subdivision(a, cand)
    if not sub.is_triangulation or set(sub.maximal_faces) != set(faces):
        return False
    gb = toric_groebner(a, CostOrder.from_cost(cand))
    if not gb.generic:
        return False
    decomp = standard_pair_decomposition(initial_ideal(gb), sub)
    return set(decomp.pairs) == expected and is_gomory_family(decomp, sub)


def sharp_family(m: int):
    """The corank-m family whose associated-set chain meets the length bound.

    Rows of the sign matrix are every +-1 vector except all-minus-one, sorted
    by (number of -1 entries, their positions); the first row is all ones and
    is added to the rest to make the coefficient matrix nonnegative.  The
    returned cost contracts the kernel basis to the all-minus-one objective.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    rows = []
    for mask in range(1 << m):
        if mask == (1 << m) - 1:
            continue
        row = tuple(-1 if mask >> t & 1 else 1 for t in range(m))
        rows.append(row)
    rows.sort(key=lambda r: (sum(1 for v in r if v < 0), tuple(t for t, v in enumerate(r) if v < 0)))
    d = (1 << m) - 1
    n = d + m
    aprime = [[1 if i == j else 0 for j in range(d)] + list(rows[i]) for i in range(d)]
    amat = [aprime[0]] + [
        [x + y for x, y in zip(aprime[i], aprime[0])] for i in range(1, d)
    ]
    a = IntMatrix(tuple(tuple(r) for r in amat))
    cost = tuple([11] + [0] * (d - 1) + [10] * m)
    bmat = rows + [[-1 if t == s else 0 for s in range(m)] for t in range(m)]
    contracted = [dot(cost, col) for col in zip(*bmat)]
    if contracted != [1] * m:
        raise AssertionError("cost does not contract the kernel basis to ones")
    return a, cost
