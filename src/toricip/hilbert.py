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

Hilbert-basis candidates are the lattice points of the half-open
parallelepipeds spanned by independent generators; they are found by writing
each parallelepiped as an integer inequality system and handing it to the
library's one lattice-point sweep (:func:`fibers.lattice_points_boxed`).
"""

from itertools import combinations

from .core import IntMatrix, kernel_lattice_basis, kernel_meets_orthant
from .errors import NotDeltaNormal, NotPointed, NotRegular, ParseError, Record, _face, int_vector
from .fibers import lattice_points_boxed
from .linalg import adjugate, clear_denominators, column_hermite, det_int, dot, rank
from .linprog import OPTIMAL, nonneg_feasible, solve_lp


class HilbertBasis(Record):
    elements: tuple  # sorted integer vectors
    generators: tuple


def _in_cone_of(gens, x):
    return nonneg_feasible([[g[i] for g in gens] for i in range(len(x))], x)


def _pointed(gens):
    return not kernel_meets_orthant([[g[i] for g in gens] for i in range(len(gens[0]))])


def _parallelepiped_points(gens):
    """Lattice points of {sum lam_i g_i : 0 <= lam_i < 1}, or [] when gens are dependent.

    One column-Hermite reduction gens U = [H | 0] gives both things needed:
    gens are independent when every row pivots, and the trailing columns
    of U span the left kernel {w : g . w = 0 for every g}.  With M
    a nonsingular r x r minor of the generators on coordinates I,
    lam = adj(M) x_I / det(M).  So the points are the integer x with
    0 <= sign(det) adj_t . x_I <= |det| - 1 for every t, and, when r < d,
    w . x = 0 for every w in the left kernel; the lattice-point sweep
    enumerates them.
    """
    r = len(gens)
    d = len(gens[0])
    _, u, pivots = column_hermite(gens, d)
    if None in pivots:
        return []
    for coords in combinations(range(d), r):
        m = [[g[i] for g in gens] for i in coords]
        det = det_int(m)
        if det:
            break
    sign = 1 if det > 0 else -1
    rows = []
    for adj_t in adjugate(m):
        s = [0] * d
        for ci, v in zip(coords, adj_t):
            s[ci] = sign * v
        rows += [(tuple(s), abs(det) - 1), (tuple(-v for v in s), 0)]
    for w in zip(*(row[r:] for row in u)):
        rows += [(w, 0), (tuple(-v for v in w), 0)]
    return lattice_points_boxed(rows, d)


def hilbert_basis(generators) -> HilbertBasis:
    """The minimal Hilbert basis of cone(generators) in Z^d.

    Candidates are the generators plus the parallelepiped points of every
    independent spanning subset (these generate the full point semigroup of
    the cone); an element is kept iff subtracting any other candidate leaves
    the cone.  Raises NotPointed when the cone contains a line.
    """
    gens = [int_vector(g, len(generators[0]), "generator") for g in generators]
    gens = [g for g in gens if any(g)]
    if not gens:
        return HilbertBasis((), ())
    if not _pointed(gens):
        raise NotPointed("cone contains a line")
    cands = set(gens)
    for sub in combinations(gens, rank(gens)):
        cands.update(_parallelepiped_points(sub))
    cands.discard(tuple([0] * len(gens[0])))
    cands = sorted(cands)
    minimal = []
    for x in cands:
        reducible = False
        for y in cands:
            if y != x:
                diff = tuple(a - b for a, b in zip(x, y))
                if _in_cone_of(gens, diff):
                    reducible = True
                    break
        if not reducible:
            minimal.append(x)
    return HilbertBasis(tuple(minimal), tuple(gens))


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
    from .triangulation import regular_subdivision
    faces = tuple(_face(f, a.n) for f in faces)
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

    fac = kernel_lattice_basis(a).fibers
    residue_roots = []
    expected = set()
    for face in faces:
        gens = [a.column(j) for j in face]
        roots = []
        for b in _parallelepiped_points(gens):
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
    from .triangulation import regular_subdivision
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
