"""Group relaxations: build, solve, lift, and the standard-pair solver.

The relaxation for a face tau drops nonnegativity on the tau-variables.  In
z-space it reads: minimize (-cB).z over B^{tau-bar} z <= pi_tau(u) for any
feasible u of the fiber, a polytope exactly when tau is a face of the
triangulation.  The paper's reduced cost c~ = c - y A (y the certificate of
a maximal face) has c~ B = c B, so c~ is never formed.  It is solved by one
first-point sweep in the cost-first coordinates z = T w of the subdivision
(:attr:`~toricip.triangulation.RegularSubdivision.cost_coordinates`), where
the lex-first lattice point is the (cost, lex z) optimum.  The elimination
behind the sweep is planned once per subdivision, over every row
(:attr:`~toricip.triangulation.RegularSubdivision.relaxation_elimination`);
a face and a right-hand side only set its offsets.  The winner z*
lifts to x* = u - B z*, integral by construction; the relaxation solves the
program iff the lifted tau-part is nonnegative.
"""

from operator import sub

from .core import IntMatrix, kernel_lattice_basis
from .errors import Infeasible, NotAFace, ParseError, Record, _face, int_vector
from .fibers import Elimination
from .linalg import dot, mat_vec
from .triangulation import RegularSubdivision


class GroupRelaxation(Record):
    matrix: IntMatrix
    cost: tuple
    face: tuple
    rhs: tuple
    feasible: tuple  # a fiber point u
    transform: tuple  # T, with z = T w (RegularSubdivision.cost_coordinates)
    kernel_rows: tuple  # B T, the kernel basis in w
    cut: tuple  # (-cB) T = (g, 0, ..., 0)
    elimination: Elimination  # of (B T, cut)
    _uncompared = ("elimination",)


class RelaxationOutcome(Record):
    z: tuple
    x: tuple  # full lifted point, integral
    solves_ip: bool
    value: int  # cost of the lifted point


def build_relaxation(a: IntMatrix, cost, delta: RegularSubdivision, tau, b) -> GroupRelaxation:
    """Assemble G^tau(b).  NotAFace when tau is outside the triangulation
    (the relaxation would be unbounded); Infeasible when the fiber is empty.
    ``delta`` must be the subdivision of (a, cost): its cost-first
    coordinates and elimination serve every face and right-hand side.
    """
    cost = int_vector(cost, a.n, "cost")
    b = int_vector(b, a.d, "right-hand side")
    if delta.matrix != a or delta.cost != cost:
        raise ParseError("the subdivision was built for another matrix or cost")
    tau = _face(tau, a.n)
    if tau not in delta:
        raise NotAFace(f"{tau} indexes an unbounded relaxation")
    u = kernel_lattice_basis(a).fibers.first(b)
    if u is None:
        raise Infeasible(f"no lattice point with A x = {b}")
    return GroupRelaxation(a, cost, tau, b, u, *delta.cost_coordinates, delta.relaxation_elimination)


def solve_relaxation(r: GroupRelaxation) -> RelaxationOutcome:
    """Optimal z of the relaxation, lifted and classified.

    The feasible region with the cost cut is a polytope.  In the cost-first
    coordinates w its rows are (B T)_i w <= u_i off the face and
    (g, 0, ..., 0) w <= 0; the face rows get no offset.  One sweep stopped at
    the first lattice point finds the (-cB)-minimum with lexicographic
    tie-break on z = T w.  An unbounded relaxation raises Unbounded.
    """
    in_face = set(r.face)
    offsets = [None if i in in_face else ui for i, ui in enumerate(r.feasible)]
    pts = r.elimination.points(offsets + [0], limit=1)
    if not pts:
        raise AssertionError("relaxation lost the origin")
    w = pts[0]
    z = mat_vec(r.transform, w)
    x = tuple(map(sub, r.feasible, mat_vec(r.kernel_rows, w)))
    solves = all(x[i] >= 0 for i in range(r.matrix.n) if i in in_face)
    if any(x[i] < 0 for i in range(r.matrix.n) if i not in in_face):
        raise AssertionError("lift broke nonnegativity off the face")
    return RelaxationOutcome(z, x, solves, dot(r.cost, x))


def solve_via_standard_pairs(decomp: "Decomposition", a: IntMatrix, b):
    """Solve the program by scanning pair linear systems A_tau x = b - A u.

    Any pair whose system has a point in N^tau (its fiber) yields the optimum
    (the lifted point lies in the pair's semigroup, hence among the optimal
    points, and fibers meet the optimal set once).  Maximal faces are tried
    first, then faces by decreasing size.  The scan order, each A u and each
    face's factorization are built once per decomposition
    (:attr:`Decomposition.face_fibers`).
    """
    b = int_vector(b, a.d, "right-hand side")
    if decomp.delta.matrix != a:
        raise ParseError("the decomposition was built for another matrix")
    for pair, au, fibers in decomp.face_fibers:
        rhs = tuple(bi - vi for bi, vi in zip(b, au))
        sol = fibers.first(rhs)
        if sol is None:
            continue
        x = list(pair.root)
        for t, i in enumerate(pair.face):
            x[i] = sol[t]
        return tuple(x), pair
    raise Infeasible(f"no standard pair solves A x = {b}; the fiber is empty")
