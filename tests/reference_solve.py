"""Per-call Fraction references for the solves the library now factors once.

``optimal_face`` reads the signs of b's coordinates off each simplex's
inverse rows, which the subdivision walk leaves scaled by positive factors,
and a reduced cost c - y A takes y from the subdivision's certificate.  These
references solve the linear systems afresh on every call, in Fraction
Gauss-Jordan (``reference_linalg.solve_exact``), as the library did before; tests hold
the factored answers equal to them.
"""

from fractions import Fraction

from reference_linalg import dot, solve_exact

from toricip.errors import OutsideCone
from toricip.linprog import nonneg_feasible


def in_cone(a, tau, b):
    """Exact membership b in cone(A_tau) = {A_tau lam : lam >= 0}, by phase 1."""
    return nonneg_feasible(a.columns(tau), b)


def reference_optimal_face(delta, b):
    """The smallest face of a triangulation holding b, by a Fraction solve per simplex."""
    a = delta.matrix
    for sigma in delta.maximal_faces:
        lam = solve_exact(a.columns(sigma), b)
        if all(v >= 0 for v in lam):
            return tuple(j for j, v in zip(sigma, lam) if v)
    raise OutsideCone(f"{tuple(b)} is outside cone(A)")


def reference_reduced_cost(a, cost, sigma):
    """c - y A for the y with y.a_j = c_j on sigma, by a Fraction solve."""
    sigma = tuple(sorted(sigma))
    y = solve_exact([list(a.column(j)) for j in sigma], [cost[j] for j in sigma])
    return tuple(Fraction(cost[j]) - dot(a.column(j), y) for j in range(a.n))
