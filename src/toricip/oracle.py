"""Brute-force geometric ground truth for every algebraic result.

Everything here works directly with lattice points of rational polytopes in
the corank-dimensional z-space: a point u is optimal iff the polytope
{Bz <= u, (-cB)z <= 0} contains only the origin, a relaxation solves the
program iff the same holds after deleting the rows indexed by the face, and a
standard polytope is a singleton that loses the property when any single
B-row is dropped.  None of it consults the Groebner machinery, which is the
point: the two routes must agree and the test suite enforces that.

Every lattice-point question about {s . z <= o}, every fiber, and the
boundedness test go through one exact integer Fourier-Motzkin elimination,
:class:`fibers.Elimination` (the library's only enumerator; the relaxation
solver, the fibers and the Hilbert-basis parallelepipeds use it too).  The
questions here each ask about one system, so they use its one-off form
:func:`lattice_points_boxed`, re-exported here, or, to test boundedness and
sweep, one plan.  Only :func:`width_along` solves LPs.

The standard-pair search keeps, per face, the minimal clipped images
max(Bz, 0) of the nonzero points z within the caps: Q_w cages only the origin
iff w dominates none.  A root must also dominate, per bounded dropped row, one
of that drop's thresholds lifted with 0 there, that is one of the floors: the
minimal joins of one such threshold per drop.  Those come first, and no floor
means no root.  Roots are then swept in lex order, each node carrying the
thresholds its prefix dominates and the floors that still complete it to a
root, so every node leads to one.  One search keeps a memo from each system,
keyed by its (B-row, cap) pairs, to its thresholds or to "unbounded": a
face's drops are the systems of the faces one larger, so each system is
planned, swept and thresholded once per search.  A face's system is its
first bounded drop's plus the dropped row, so that drop's sweep, made by a
face of the same size, gives both threshold sets: the face's points are the
drop's within that row's cap.  ``fiber_solve``
answers every right-hand side from the factorization the matrix keeps,
minimizing the cost over the fiber's z-coordinates and lifting only the
optimum to x.
The module loads no Groebner, standard-pair or subdivision code at import.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, groupby, repeat
from operator import add, le

from .core import IntMatrix, kernel_lattice_basis
from .errors import BoundUnavailable, Degenerate, NotAFace, ParseError, Record, Unbounded, _face, int_vector
from .fibers import Elimination, lattice_points_boxed
from .linalg import det_int, dot, mat_vec
from .linprog import OPTIMAL, UNBOUNDED, solve_lp


class IneqPolytope(Record):
    """{z : s . z <= offset per row}, with integer data."""

    rows: tuple  # ((coeffs), offset) pairs

    @classmethod
    def from_rows(cls, rows):
        """Rows (s, offset) of one width, each checked as the integer vector (*s, offset)."""
        rows = [(*s, o) for s, o in rows]
        width = len(rows[0]) if rows else 0
        rows = [int_vector(r, width, "inequality row") for r in rows]
        return cls(tuple((r[:-1], r[-1]) for r in rows))

    @property
    def dim(self):
        return len(self.rows[0][0]) if self.rows else 0

    def is_bounded(self):
        """Whether the recession cone {s . z <= 0} is trivial."""
        return _recession_trivial(tuple(s for s, _ in self.rows), self.dim)


@lru_cache(maxsize=4096)
def _recession_trivial(normals, dim):
    """Whether {s . z <= 0} is {0}: the homogeneous Fourier-Motzkin test."""
    return Elimination(normals, dim).bounded


def enumerate_lattice_points(poly: IneqPolytope, limit=None):
    """All integer points of a bounded polytope, in ascending lex order.

    ``limit`` stops the sweep early once that many points are found.  Raises
    Unbounded when the recession cone is nontrivial.  One plan answers both.
    """
    plan = Elimination([s for s, _ in poly.rows], poly.dim)
    if not plan.bounded:
        raise Unbounded("recession cone is nontrivial")
    return plan.points([o for _, o in poly.rows], limit)


def cost_row(a: IntMatrix, cost):
    """The objective row -cB of the z-space reformulation."""
    cost = int_vector(cost, a.n, "cost")
    return tuple(-dot(cost, col) for col in kernel_lattice_basis(a).columns())


def q_polytope(a: IntMatrix, cost, u, tau=()):
    """Q_u^{tau-bar}: B rows off tau bounded by u, plus the cost cut.

    A cost or u not of length n, or a tau that repeats an index or has one
    outside 0..n-1, is malformed.
    """
    u, tau = int_vector(u, a.n, "u"), _face(tau, a.n)
    lat = kernel_lattice_basis(a)
    rows = [(lat.matrix[i], u[i]) for i in range(a.n) if i not in tau]
    rows.append((cost_row(a, cost), 0))
    return IneqPolytope(tuple(rows))  # every entry is checked already


def fiber_solve(a: IntMatrix, cost, b, with_fiber=False):
    """Optimal point of the program by exhaustive fiber enumeration.

    Lexicographic tie-break; returns None when infeasible (a marker, not an
    error).  With ``with_fiber`` the full fiber is returned alongside.  The
    fiber is x0 + B z over the echelon kernel basis B of the factorization,
    and cost . x = cost . x0 + r . z with r_j = cost . (column j of B).  The
    sweep yields z in lex order, which is lex order on x, so the first z of
    least r . z, the least (r . z, index), is the optimum with its tie-break;
    only that z is lifted.
    """
    cost = int_vector(cost, a.n, "cost")
    fac = a.fibers
    x0 = fac.particular(b)
    zs = [] if x0 is None else fac.elimination.points(x0)
    r = [dot(cost, col) for col in zip(*fac.basis)]
    best = min(zip(map(dot, repeat(r), zs), count()), default=None)

    def lift(z):
        return tuple(map(add, x0, mat_vec(fac.basis, z)))

    opt = None if best is None else lift(zs[best[1]])
    return (opt, [lift(z) for z in zs]) if with_fiber else opt


def is_standard_polytope(a: IntMatrix, cost, u, tau, delta: "RegularSubdivision" = None) -> bool:
    """Definition test: singleton, and every single B-row drop admits a point.

    Unbounded relaxations count as admitting one (integral data puts lattice
    points on any unbounded edge).  A malformed tau is a ParseError, and a
    well-formed one that is not a face of the triangulation raises NotAFace.
    """
    from .triangulation import regular_subdivision

    cost = int_vector(cost, a.n, "cost")
    if delta is None:
        delta = regular_subdivision(a, cost)
    tau = _face(tau, a.n)
    if tau not in delta:
        raise NotAFace(f"{tau} is not a face of the triangulation")
    ndim = kernel_lattice_basis(a).corank
    rows = q_polytope(a, cost, u, tau).rows
    if lattice_points_boxed(rows, ndim, limit=2) != [(0,) * ndim]:  # not a singleton
        return False
    for k in range(len(rows) - 1):  # every B-row; the cost cut stays last
        rel = rows[:k] + rows[k + 1 :]
        plan = Elimination([s for s, _ in rel], ndim)  # unbounded: admits a nonzero point
        if plan.bounded and len(plan.points([o for _, o in rel], limit=2)) < 2:
            return False
    return True


def kannan_bound(rows, ndim):
    """2 M (n+2) Delta_n / delta_n for the row system, exactly.

    M is the largest row l1-norm, Delta/delta the extreme absolute values of
    the n x n minors; a zero minor is the degenerate case and raises.
    """
    rows = [int_vector(r, ndim, "row") for r in rows]
    m = max(sum(abs(v) for v in r) for r in rows)
    minors = [
        abs(det_int([rows[i] for i in sub])) for sub in combinations(range(len(rows)), ndim)
    ]
    if not minors or min(minors) == 0:
        raise Degenerate("a maximal minor of the row system vanishes")
    return Fraction(2 * m * (ndim + 2) * max(minors), min(minors))


def kannan_root_bound(a: IntMatrix, cost):
    """Kannan bound for standard-polytope right-hand sides, or None if degenerate."""
    lat = kernel_lattice_basis(a)
    if lat.corank == 0:
        return 0
    rows = list(lat.matrix) + [cost_row(a, cost)]
    try:
        return math.floor(kannan_bound(rows, lat.corank))
    except Degenerate:
        return None


def width_along(poly: IneqPolytope, v):
    """max v.z - min v.z over the polytope, as an exact rational."""
    if not any(v):
        raise ValueError("direction must be nonzero")
    a_ub = [list(s) for s, _ in poly.rows]
    b_ub = [o for _, o in poly.rows]
    hi = solve_lp(list(v), a_ub, b_ub, maximize=True)
    lo = solve_lp(list(v), a_ub, b_ub)
    if hi.status == UNBOUNDED or lo.status == UNBOUNDED:
        raise Unbounded("width direction is unbounded")
    if hi.status != OPTIMAL or lo.status != OPTIMAL:
        raise ValueError("empty polytope has no width")
    return hi.value - lo.value


def brute_force_standard_pairs(
    a: IntMatrix, cost, delta: "RegularSubdivision", root_box=None, margin=0
) -> "Decomposition":
    """All standard pairs by direct standard-polytope search.

    Coordinates are capped by the Kannan bound when no maximal minor of the
    lifted row system vanishes, intersected with a caller-supplied box (plus
    ``margin``, so a too-small box shows up as extra pairs rather than silent
    agreement); with a vanishing minor and no box, the search is refused.  A
    negative box entry or margin is malformed: it would empty the box.
    """
    from .stdpairs import Decomposition, StandardPair

    cost = int_vector(cost, a.n, "cost")
    if root_box is not None:
        root_box = int_vector(root_box, a.n, "root box")
    (margin,) = int_vector((margin,), 1, "margin")
    if margin < 0 or min(root_box or [0]) < 0:
        raise ParseError("root box entries and margin must be nonnegative")
    lat = kernel_lattice_basis(a)
    kb = kannan_root_bound(a, cost)
    if kb is None and root_box is None:
        raise BoundUnavailable("degenerate minors and no caller-supplied root box")
    box = [kb] * a.n if root_box is None else [r + margin for r in root_box]
    box = [cap if kb is None else min(cap, kb) for cap in box]
    crow = (cost_row(a, cost), 0)
    ndim = lat.corank
    pairs, memo = [], {}
    for _, faces in groupby(delta.faces(), len):  # a first bounded drop is swept at its size
        swept = {}
        for face in faces:
            taubar = [i for i in range(a.n) if i not in set(face)]
            if ndim == 0:
                # zero-dimensional z-space: the single full face carries (0, face)
                if not taubar:
                    pairs.append(StandardPair((0,) * a.n, face))
                continue
            caps = [box[i] for i in taubar]
            brows = [lat.matrix[i] for i in taubar]
            for w in _face_roots(brows, caps, crow, ndim, memo, swept):
                root = dict(zip(taubar, w))
                pairs.append(StandardPair(tuple(root.get(i, 0) for i in range(a.n)), face))
    return Decomposition.from_pairs(pairs, delta)


def _face_roots(brows, caps, crow, ndim, memo, swept):
    """The roots w <= caps of one face's standard pairs, in lex order.

    ``memo`` is the search's: it maps each system, keyed by its kept (B-row,
    cap) pairs, to its thresholds, or to None when it is unbounded, so no
    system is planned, swept or thresholded twice.  ``swept`` maps the
    systems swept for the faces of this size to their points.  The face's
    system is a bounded drop's system plus the dropped row, so it takes its
    points from its first bounded drop's sweep, those within that row's cap;
    a drop, one row short, is swept by a face of this size.  A face without
    a bounded drop sweeps its own.  Raises Unbounded when the face's system
    is unbounded, also when the memo first met it as a drop.
    """
    n = len(brows)
    drops = [[i for i in range(n) if i != k] for k in range(n)]

    def key(kept):
        return tuple((brows[i], caps[i]) for i in kept)

    def system(kept):  # the thresholds of the B-rows kept and the cost cut, or None when unbounded
        at = key(kept)
        if at not in memo:
            normals = [brows[i] for i in kept]
            plan = Elimination(normals + [crow[0]], ndim)  # one plan: bounded, then the sweep
            offsets = [caps[i] for i in kept] + [crow[1]]
            points = swept[at] = plan.points(offsets) if plan.bounded else None
            memo[at] = None if points is None else _thresholds(normals, points)
        return memo[at]

    own = key(range(n))
    if own not in memo:
        k = next((k for k in range(n) if system(drops[k]) is not None), None)
        points = None if k is None else swept.get(key(drops[k]))
        if points is None:
            system(range(n))
        else:
            memo[own] = _thresholds(brows, [z for z in points if dot(brows[k], z) <= caps[k]])
    if memo[own] is None:
        raise Unbounded("the face's capped polytope is unbounded")
    return _roots(memo[own], caps, map(system, drops))  # lazily: a drop only while floors remain


def _thresholds(brows, points):
    """Minimal clipped B-images max(Bz, 0) of the nonzero points of one sweep.

    The points are those of a face's or a drop's system within the caps;
    a face with a bounded drop takes them from that drop's sweep.
    """
    return _minimal({tuple(max(dot(b, z), 0) for b in brows) for z in points if any(z)})


def _minimal(vectors):
    """The componentwise-minimal vectors, in lex order (a dominated one sorts later)."""
    out = []
    for t in sorted(vectors):
        if not any(all(map(le, s, t)) for s in out):
            out.append(t)
    return out


def _roots(thresholds, caps, drops):
    """The undominated w that, off k, dominate a threshold of each bounded drop k."""
    floors = _floors(thresholds, caps, drops)
    return _undominated(thresholds, caps, floors) if floors else []


def _floors(thresholds, caps, drops):
    """Minimal joins of one threshold per bounded drop k, lifted with 0 at k.

    w dominates such a threshold of every bounded drop iff it dominates a
    join; a join above the caps or dominating a threshold has no root above
    it and is dropped, so [] means there are no roots.
    """
    floors = [(0,) * len(caps)]
    for k, ths in enumerate(drops):
        if ths is not None:
            joins = {tuple(map(max, f, t[:k] + (0,) + t[k:])) for t in ths for f in floors}
            floors = _minimal(j for j in joins if all(map(le, j, caps))
                              and not any(all(map(le, th, j)) for th in thresholds))
            if not floors:
                break
    return floors


def _undominated(thresholds, caps, floors):
    """All w in the cap box dominating no threshold but some floor, in lex order.

    A node carries the thresholds its prefix dominates and the floors f whose
    completion (prefix, f[depth:]) dominates none of them, a w below the node.
    A floor lives on v from f[depth] to the least th[depth] of a carried th
    with th[depth+1:] <= f[depth+1:], where it dies for good.
    """
    k = len(caps)
    out = []

    def rec(depth, w, live, floors):
        cap, spans = caps[depth] + 1, []
        for f in floors:
            tail = f[depth + 1 :]
            end = min([th[depth] for th in live if all(map(le, th[depth + 1 :], tail))] + [cap])
            if f[depth] < end:
                spans.append((f[depth], end, f))
        if not spans:
            return
        for v in range(min(s[0] for s in spans), max(s[1] for s in spans)):
            alive = [f for lo, hi, f in spans if lo <= v < hi]
            if alive and depth == k - 1:
                out.append(w + (v,))
            elif alive:
                rec(depth + 1, w + (v,), [th for th in live if th[depth] <= v], alive)

    rec(0, (), thresholds, floors)
    return out
