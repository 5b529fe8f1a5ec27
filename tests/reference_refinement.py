"""Reference lex refinements for tests: a scan by Cramer's rule and a search over integer costs.

``triangulation.lex_refinement`` reads the refinement of a degenerate cost
off the bases its subdivision walk visits.  ``reference_lex_refinement`` is
the scan the library ran before: every d-subset of every cell, tested by
integer determinants.  ``lex_realizing_cost`` finds the refinement the slow
way: geometric lex weights are added to the cost at increasing scales until
the perturbed cost is generic, reproduces the tie-broken initial ideal
exactly, and induces a genuine triangulation.  Each candidate costs a full
toric Groebner basis and a subdivision, so keep the instances small.
"""

from bisect import bisect
from itertools import combinations

from toricip.core import IntMatrix
from toricip.groebner import CostOrder, toric_groebner
from toricip.linalg import det_int
from toricip.triangulation import RegularSubdivision, regular_subdivision


def reference_lex_refinement(delta):
    """The lex refinement of ``delta``, by a scan of each cell's d-subsets.

    A nonsingular d-subset sigma of a cell C is a simplex when, for each j in
    C - sigma, the first nonzero entry of (A_sigma^{-1} a_j on sigma, -1 at j)
    is negative, so a_j lifts above sigma.  Columns off C stay strictly slack.
    The signs are read off integer determinants by Cramer's rule.  The result
    keeps no simplex inverses: tests only compare it.
    """
    a = delta.matrix
    simplices = {}
    for cell, y in zip(delta.maximal_faces, delta.certificates):
        for sigma in combinations(cell, a.d):
            det = det_int(a.columns(sigma))
            if det and all(_lifted_above(a, sigma, j, det) for j in cell if j not in sigma):
                simplices[sigma] = y
    faces = sorted(simplices)
    certs = tuple(map(simplices.get, faces))
    return RegularSubdivision(a, delta.cost, tuple(faces), certs, True, (), ())


def _lifted_above(a, sigma, j, det):
    for k in range(bisect(sigma, j)):  # det * lam_k by Cramer's rule; the -1 at j comes after
        if v := det_int(a.columns(sigma[:k] + (j,) + sigma[k + 1:])):
            return v * det < 0
    return True


def lex_realizing_cost(a: IntMatrix, cost):
    """An integer cost realizing (cost, lex tie-break) generically."""
    cost = tuple(int(v) for v in cost)
    gb = toric_groebner(a, CostOrder.from_cost(cost))
    if gb.generic and regular_subdivision(a, cost).is_triangulation:
        return cost
    heads = {b.head for b in gb.elements}
    n = a.n
    for base in (8, 64, 1024):
        w = tuple(base ** (n - 1 - j) for j in range(n))
        scale = sum(w) + 1
        for _ in range(10):
            c2 = tuple(scale * cv + wv for cv, wv in zip(cost, w))
            gb2 = toric_groebner(a, CostOrder.from_cost(c2))
            if gb2.generic and {b.head for b in gb2.elements} == heads:
                if regular_subdivision(a, c2).is_triangulation:
                    return c2
            scale *= 32
    raise RuntimeError("no scale realized the lex refinement")
