"""Test-only reference for the group-relaxation solve: enumerate, then minimize.

Lists every lattice point of the relaxation polytope in the kernel
coordinates z of the paper (the B-rows off the face bounded by u, plus the
cost cut) and takes the (-cB)-minimum with lexicographic tie-break on z.
``relax.solve_relaxation`` finds the same point with one first-point sweep
in cost-first coordinates; the tests hold the two equal.
"""

from reference_linalg import dot

from toricip import oracle
from toricip.core import kernel_lattice_basis
from toricip.relax import RelaxationOutcome


def reference_solve(r):
    """The :class:`RelaxationOutcome` of a ``GroupRelaxation``, by enumerate-and-min."""
    lat = kernel_lattice_basis(r.matrix)
    crow = oracle.cost_row(r.matrix, r.cost)
    pts = oracle.lattice_points_boxed(_rows(r), lat.corank)
    if not pts:
        raise AssertionError("relaxation lost the origin")
    z = min(pts, key=lambda p: (dot(crow, p), p))
    x = tuple(ui - bi for ui, bi in zip(r.feasible, lat.apply(z)))
    in_face = set(r.face)
    solves = all(x[i] >= 0 for i in in_face)
    if any(x[i] < 0 for i in range(r.matrix.n) if i not in in_face):
        raise AssertionError("lift broke nonnegativity off the face")
    return RelaxationOutcome(z, x, solves, dot(r.cost, x))


def tie_count(r):
    """How many lattice points of the relaxation share its least cost."""
    lat = kernel_lattice_basis(r.matrix)
    crow = oracle.cost_row(r.matrix, r.cost)
    costs = [dot(crow, p) for p in oracle.lattice_points_boxed(_rows(r), lat.corank)]
    return costs.count(min(costs))


def _rows(r):
    """The B-rows off the face bounded by the fiber point u, then the cost cut."""
    return oracle.q_polytope(r.matrix, r.cost, r.feasible, r.face).rows
